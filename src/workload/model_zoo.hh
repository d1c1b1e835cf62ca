/**
 * @file
 * Model zoo: per-layer shape definitions of every DNN used in the
 * paper's evaluation (Secs. 4.2-4.6).
 *
 * Training sets: BERT, MobileNet(V1/V2), ResNet-50, SRGAN, UNet,
 * ViT-B/16, Xception, VGG-16. Validation/unseen sets additionally
 * use MobileNetV3 (large/small), NASNet-Mobile, EfficientNetV2-S,
 * ConvNeXt-T, ResUNet, FSRCNN (parametric resolution) and a DLEU-like
 * super-resolution/enhancement pipeline. Shapes follow the published
 * architectures at their standard input resolutions.
 */

#ifndef UNICO_WORKLOAD_MODEL_ZOO_HH
#define UNICO_WORKLOAD_MODEL_ZOO_HH

#include <string>
#include <vector>

#include "workload/network.hh"

namespace unico::workload {

/** BERT-base encoder (seq len 384), expressed as GEMMs. */
Network makeBert();

/** MobileNet V1 at 224x224. */
Network makeMobileNet();

/** MobileNet V2 at 224x224. */
Network makeMobileNetV2();

/** MobileNet V3 Large at 224x224. */
Network makeMobileNetV3Large();

/** MobileNet V3 Small at 224x224. */
Network makeMobileNetV3Small();

/** ResNet-50 at 224x224. */
Network makeResNet();

/** SRGAN generator for 4x super resolution of 96x96 input. */
Network makeSrgan();

/** UNet (biomedical, 572x572-style contracting/expanding path). */
Network makeUnet();

/** ViT-B/16 at 224x224 (patch embedding + encoder GEMMs). */
Network makeVit();

/** Xception at 299x299 (entry/middle/exit flows). */
Network makeXception();

/** VGG-16 at 224x224. */
Network makeVgg();

/** NASNet-Mobile at 224x224 (approximated cell structure). */
Network makeNasNetMobile();

/** EfficientNetV2-S at 384x384 (fused + regular MBConv stages). */
Network makeEfficientNetV2();

/** ConvNeXt-T at 224x224 (depthwise 7x7 + pointwise MLP blocks). */
Network makeConvNeXt();

/** ResUNet (residual UNet for remote sensing segmentation). */
Network makeResUnet();

/** FSRCNN super-resolution network at the given input resolution. */
Network makeFsrcnn(std::int64_t height, std::int64_t width);

/** DLEU-like (DLSS-style) enhancement+upscaling network at 1080p. */
Network makeDleu();

/** All registered model names. */
std::vector<std::string> modelNames();

/**
 * Look up a network by canonical name (e.g. "resnet", "mobilenet_v2",
 * "fsrcnn_120x320", whose sides may each be 1..8192). Throws
 * std::invalid_argument for unknown names.
 */
Network makeNetwork(const std::string &name);

} // namespace unico::workload

#endif // UNICO_WORKLOAD_MODEL_ZOO_HH
