#include "workload/model_zoo.hh"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace unico::workload {

namespace {

/** Append a standard transformer encoder block expressed as GEMMs.
 *  @param seq sequence length, @param dim hidden size,
 *  @param mlp feed-forward inner size. */
void
addTransformerBlock(Network &net, const std::string &prefix,
                    std::int64_t seq, std::int64_t dim, std::int64_t mlp)
{
    // QKV projections (fused as one GEMM of 3*dim outputs).
    net.add(TensorOp::gemm(prefix + "_qkv", seq, 3 * dim, dim));
    // Attention scores QK^T and context AV.
    net.add(TensorOp::gemm(prefix + "_qk", seq, seq, dim));
    net.add(TensorOp::gemm(prefix + "_av", seq, dim, seq));
    // Output projection.
    net.add(TensorOp::gemm(prefix + "_proj", seq, dim, dim));
    // Feed-forward network.
    net.add(TensorOp::gemm(prefix + "_ffn1", seq, mlp, dim));
    net.add(TensorOp::gemm(prefix + "_ffn2", seq, dim, mlp));
}

/** Append an inverted-residual (MBConv) block: expand 1x1, depthwise,
 *  project 1x1. @p in/@p out channel counts, @p expand ratio. */
void
addMbConv(Network &net, const std::string &prefix, std::int64_t in,
          std::int64_t out, std::int64_t expand, std::int64_t spatial,
          std::int64_t kernel, std::int64_t stride)
{
    const std::int64_t mid = in * expand;
    const std::int64_t out_spatial = spatial / stride;
    if (expand != 1)
        net.add(TensorOp::conv(prefix + "_expand", mid, in, spatial,
                               spatial, 1, 1));
    net.add(TensorOp::depthwise(prefix + "_dw", mid, out_spatial,
                                out_spatial, kernel, kernel, stride));
    net.add(TensorOp::conv(prefix + "_project", out, mid, out_spatial,
                           out_spatial, 1, 1));
}

/** Fused-MBConv block (EfficientNetV2): 3x3 expand conv + 1x1 project. */
void
addFusedMbConv(Network &net, const std::string &prefix, std::int64_t in,
               std::int64_t out, std::int64_t expand, std::int64_t spatial,
               std::int64_t stride)
{
    const std::int64_t mid = in * expand;
    const std::int64_t out_spatial = spatial / stride;
    net.add(TensorOp::conv(prefix + "_fused", mid, in, out_spatial,
                           out_spatial, 3, 3, stride));
    if (expand != 1)
        net.add(TensorOp::conv(prefix + "_project", out, mid, out_spatial,
                               out_spatial, 1, 1));
}

/** Depthwise-separable block (MobileNetV1 / Xception style). */
void
addSeparable(Network &net, const std::string &prefix, std::int64_t in,
             std::int64_t out, std::int64_t spatial, std::int64_t stride)
{
    const std::int64_t out_spatial = spatial / stride;
    net.add(TensorOp::depthwise(prefix + "_dw", in, out_spatial,
                                out_spatial, 3, 3, stride));
    net.add(TensorOp::conv(prefix + "_pw", out, in, out_spatial,
                           out_spatial, 1, 1));
}

/** ResNet bottleneck: 1x1 reduce, 3x3, 1x1 expand (+ optional
 *  projection shortcut when @p project is true). */
void
addBottleneck(Network &net, const std::string &prefix, std::int64_t in,
              std::int64_t mid, std::int64_t out, std::int64_t spatial,
              std::int64_t stride, bool project)
{
    const std::int64_t out_spatial = spatial / stride;
    net.add(TensorOp::conv(prefix + "_a", mid, in, out_spatial, out_spatial,
                           1, 1, stride));
    net.add(TensorOp::conv(prefix + "_b", mid, mid, out_spatial,
                           out_spatial, 3, 3));
    net.add(TensorOp::conv(prefix + "_c", out, mid, out_spatial,
                           out_spatial, 1, 1));
    if (project)
        net.add(TensorOp::conv(prefix + "_proj", out, in, out_spatial,
                               out_spatial, 1, 1, stride));
}

} // namespace

Network
makeBert()
{
    Network net("bert");
    const std::int64_t seq = 384, dim = 768, mlp = 3072;
    for (int i = 0; i < 12; ++i) {
        std::ostringstream prefix;
        prefix << "enc" << i;
        addTransformerBlock(net, prefix.str(), seq, dim, mlp);
    }
    net.add(TensorOp::gemm("pooler", 1, dim, dim));
    return net;
}

Network
makeMobileNet()
{
    Network net("mobilenet");
    net.add(TensorOp::conv("conv1", 32, 3, 112, 112, 3, 3, 2));
    struct Spec { std::int64_t in, out, spatial, stride; };
    const Spec specs[] = {
        {32, 64, 112, 1},   {64, 128, 112, 2},  {128, 128, 56, 1},
        {128, 256, 56, 2},  {256, 256, 28, 1},  {256, 512, 28, 2},
        {512, 512, 14, 1},  {512, 512, 14, 1},  {512, 512, 14, 1},
        {512, 512, 14, 1},  {512, 512, 14, 1},  {512, 1024, 14, 2},
        {1024, 1024, 7, 1},
    };
    int idx = 0;
    for (const auto &sp : specs) {
        std::ostringstream prefix;
        prefix << "block" << idx++;
        addSeparable(net, prefix.str(), sp.in, sp.out, sp.spatial,
                     sp.stride);
    }
    net.add(TensorOp::gemv("fc", 1000, 1024));
    return net;
}

Network
makeMobileNetV2()
{
    Network net("mobilenet_v2");
    net.add(TensorOp::conv("conv1", 32, 3, 112, 112, 3, 3, 2));
    struct Spec {
        std::int64_t in, out, expand, spatial, stride, repeat;
    };
    const Spec specs[] = {
        {32, 16, 1, 112, 1, 1},  {16, 24, 6, 112, 2, 2},
        {24, 32, 6, 56, 2, 3},   {32, 64, 6, 28, 2, 4},
        {64, 96, 6, 14, 1, 3},   {96, 160, 6, 14, 2, 3},
        {160, 320, 6, 7, 1, 1},
    };
    int idx = 0;
    for (const auto &sp : specs) {
        std::int64_t in = sp.in;
        std::int64_t spatial = sp.spatial;
        for (std::int64_t rep = 0; rep < sp.repeat; ++rep) {
            std::ostringstream prefix;
            prefix << "ir" << idx++;
            const std::int64_t stride = rep == 0 ? sp.stride : 1;
            addMbConv(net, prefix.str(), in, sp.out, sp.expand, spatial,
                      3, stride);
            spatial /= stride;
            in = sp.out;
        }
    }
    net.add(TensorOp::conv("conv_last", 1280, 320, 7, 7, 1, 1));
    net.add(TensorOp::gemv("fc", 1000, 1280));
    return net;
}

Network
makeMobileNetV3Large()
{
    Network net("mobilenet_v3_large");
    net.add(TensorOp::conv("conv1", 16, 3, 112, 112, 3, 3, 2));
    struct Spec {
        std::int64_t in, out, mid, spatial, kernel, stride;
    };
    const Spec specs[] = {
        {16, 16, 16, 112, 3, 1},   {16, 24, 64, 112, 3, 2},
        {24, 24, 72, 56, 3, 1},    {24, 40, 72, 56, 5, 2},
        {40, 40, 120, 28, 5, 1},   {40, 40, 120, 28, 5, 1},
        {40, 80, 240, 28, 3, 2},   {80, 80, 200, 14, 3, 1},
        {80, 80, 184, 14, 3, 1},   {80, 80, 184, 14, 3, 1},
        {80, 112, 480, 14, 3, 1},  {112, 112, 672, 14, 3, 1},
        {112, 160, 672, 14, 5, 2}, {160, 160, 960, 7, 5, 1},
        {160, 160, 960, 7, 5, 1},
    };
    int idx = 0;
    for (const auto &sp : specs) {
        std::ostringstream prefix;
        prefix << "bneck" << idx++;
        const std::int64_t out_spatial = sp.spatial / sp.stride;
        if (sp.mid != sp.in)
            net.add(TensorOp::conv(prefix.str() + "_expand", sp.mid, sp.in,
                                   sp.spatial, sp.spatial, 1, 1));
        net.add(TensorOp::depthwise(prefix.str() + "_dw", sp.mid,
                                    out_spatial, out_spatial, sp.kernel,
                                    sp.kernel, sp.stride));
        net.add(TensorOp::conv(prefix.str() + "_project", sp.out, sp.mid,
                               out_spatial, out_spatial, 1, 1));
    }
    net.add(TensorOp::conv("conv_last", 960, 160, 7, 7, 1, 1));
    net.add(TensorOp::gemv("fc1", 1280, 960));
    net.add(TensorOp::gemv("fc2", 1000, 1280));
    return net;
}

Network
makeMobileNetV3Small()
{
    Network net("mobilenet_v3_small");
    net.add(TensorOp::conv("conv1", 16, 3, 112, 112, 3, 3, 2));
    struct Spec {
        std::int64_t in, out, mid, spatial, kernel, stride;
    };
    const Spec specs[] = {
        {16, 16, 16, 112, 3, 2},  {16, 24, 72, 56, 3, 2},
        {24, 24, 88, 28, 3, 1},   {24, 40, 96, 28, 5, 2},
        {40, 40, 240, 14, 5, 1},  {40, 40, 240, 14, 5, 1},
        {40, 48, 120, 14, 5, 1},  {48, 48, 144, 14, 5, 1},
        {48, 96, 288, 14, 5, 2},  {96, 96, 576, 7, 5, 1},
        {96, 96, 576, 7, 5, 1},
    };
    int idx = 0;
    for (const auto &sp : specs) {
        std::ostringstream prefix;
        prefix << "bneck" << idx++;
        const std::int64_t out_spatial = sp.spatial / sp.stride;
        if (sp.mid != sp.in)
            net.add(TensorOp::conv(prefix.str() + "_expand", sp.mid, sp.in,
                                   sp.spatial, sp.spatial, 1, 1));
        net.add(TensorOp::depthwise(prefix.str() + "_dw", sp.mid,
                                    out_spatial, out_spatial, sp.kernel,
                                    sp.kernel, sp.stride));
        net.add(TensorOp::conv(prefix.str() + "_project", sp.out, sp.mid,
                               out_spatial, out_spatial, 1, 1));
    }
    net.add(TensorOp::conv("conv_last", 576, 96, 7, 7, 1, 1));
    net.add(TensorOp::gemv("fc1", 1024, 576));
    net.add(TensorOp::gemv("fc2", 1000, 1024));
    return net;
}

Network
makeResNet()
{
    Network net("resnet");
    net.add(TensorOp::conv("conv1", 64, 3, 112, 112, 7, 7, 2));
    struct Stage {
        std::int64_t in, mid, out, spatial, stride, blocks;
    };
    const Stage stages[] = {
        {64, 64, 256, 56, 1, 3},
        {256, 128, 512, 56, 2, 4},
        {512, 256, 1024, 28, 2, 6},
        {1024, 512, 2048, 14, 2, 3},
    };
    int stage_idx = 2;
    for (const auto &st : stages) {
        std::int64_t in = st.in;
        std::int64_t spatial = st.spatial;
        for (std::int64_t blk = 0; blk < st.blocks; ++blk) {
            std::ostringstream prefix;
            prefix << "conv" << stage_idx << "_" << blk;
            const std::int64_t stride = blk == 0 ? st.stride : 1;
            addBottleneck(net, prefix.str(), in, st.mid, st.out, spatial,
                          stride, blk == 0);
            spatial /= stride;
            in = st.out;
        }
        ++stage_idx;
    }
    net.add(TensorOp::gemv("fc", 1000, 2048));
    return net;
}

Network
makeSrgan()
{
    Network net("srgan");
    // Generator for 4x SR of a 96x96 LR input.
    net.add(TensorOp::conv("conv_in", 64, 3, 96, 96, 9, 9));
    for (int i = 0; i < 16; ++i) {
        std::ostringstream a, b;
        a << "resblk" << i << "_a";
        b << "resblk" << i << "_b";
        net.add(TensorOp::conv(a.str(), 64, 64, 96, 96, 3, 3));
        net.add(TensorOp::conv(b.str(), 64, 64, 96, 96, 3, 3));
    }
    net.add(TensorOp::conv("conv_mid", 64, 64, 96, 96, 3, 3));
    // Two pixel-shuffle upsampling stages.
    net.add(TensorOp::conv("up1", 256, 64, 96, 96, 3, 3));
    net.add(TensorOp::conv("up2", 256, 64, 192, 192, 3, 3));
    net.add(TensorOp::conv("conv_out", 3, 64, 384, 384, 9, 9));
    return net;
}

Network
makeUnet()
{
    Network net("unet");
    struct Level { std::int64_t ch, spatial; };
    const Level enc[] = {
        {64, 568}, {128, 280}, {256, 136}, {512, 64},
    };
    // Contracting path: two 3x3 convs per level.
    std::int64_t in = 1;
    for (std::size_t i = 0; i < 4; ++i) {
        std::ostringstream a, b;
        a << "enc" << i << "_a";
        b << "enc" << i << "_b";
        net.add(TensorOp::conv(a.str(), enc[i].ch, in, enc[i].spatial + 2,
                               enc[i].spatial + 2, 3, 3));
        net.add(TensorOp::conv(b.str(), enc[i].ch, enc[i].ch,
                               enc[i].spatial, enc[i].spatial, 3, 3));
        in = enc[i].ch;
    }
    // Bottleneck.
    net.add(TensorOp::conv("bottleneck_a", 1024, 512, 30, 30, 3, 3));
    net.add(TensorOp::conv("bottleneck_b", 1024, 1024, 28, 28, 3, 3));
    // Expanding path: up-conv + two 3x3 convs per level.
    const Level dec[] = {
        {512, 52}, {256, 100}, {128, 196}, {64, 388},
    };
    in = 1024;
    for (std::size_t i = 0; i < 4; ++i) {
        std::ostringstream up, a, b;
        up << "up" << i;
        a << "dec" << i << "_a";
        b << "dec" << i << "_b";
        net.add(TensorOp::conv(up.str(), dec[i].ch, in, dec[i].spatial + 4,
                               dec[i].spatial + 4, 2, 2));
        net.add(TensorOp::conv(a.str(), dec[i].ch, dec[i].ch * 2,
                               dec[i].spatial + 2, dec[i].spatial + 2, 3,
                               3));
        net.add(TensorOp::conv(b.str(), dec[i].ch, dec[i].ch,
                               dec[i].spatial, dec[i].spatial, 3, 3));
        in = dec[i].ch;
    }
    net.add(TensorOp::conv("out", 2, 64, 388, 388, 1, 1));
    return net;
}

Network
makeVit()
{
    Network net("vit");
    const std::int64_t seq = 197, dim = 768, mlp = 3072;
    // Patch embedding: 16x16 conv over 224x224x3 == GEMM 196x768x768.
    net.add(TensorOp::conv("patch_embed", dim, 3, 14, 14, 16, 16, 16));
    for (int i = 0; i < 12; ++i) {
        std::ostringstream prefix;
        prefix << "enc" << i;
        addTransformerBlock(net, prefix.str(), seq, dim, mlp);
    }
    net.add(TensorOp::gemv("head", 1000, dim));
    return net;
}

Network
makeXception()
{
    Network net("xception");
    // Entry flow.
    net.add(TensorOp::conv("conv1", 32, 3, 149, 149, 3, 3, 2));
    net.add(TensorOp::conv("conv2", 64, 32, 147, 147, 3, 3));
    struct Entry { std::int64_t in, out, spatial; };
    const Entry entry[] = {
        {64, 128, 147}, {128, 256, 74}, {256, 728, 37},
    };
    int idx = 0;
    for (const auto &e : entry) {
        std::ostringstream p1, p2, proj;
        p1 << "entry" << idx << "_sep1";
        p2 << "entry" << idx << "_sep2";
        proj << "entry" << idx << "_proj";
        addSeparable(net, p1.str(), e.in, e.out, e.spatial, 1);
        addSeparable(net, p2.str(), e.out, e.out, e.spatial, 2);
        net.add(TensorOp::conv(proj.str(), e.out, e.in, e.spatial / 2,
                               e.spatial / 2, 1, 1, 2));
        ++idx;
    }
    // Middle flow: 8 blocks of three separable convs at 19x19x728.
    for (int blk = 0; blk < 8; ++blk) {
        for (int s = 0; s < 3; ++s) {
            std::ostringstream prefix;
            prefix << "mid" << blk << "_sep" << s;
            addSeparable(net, prefix.str(), 728, 728, 19, 1);
        }
    }
    // Exit flow.
    addSeparable(net, "exit_sep1", 728, 728, 19, 1);
    addSeparable(net, "exit_sep2", 728, 1024, 19, 2);
    net.add(TensorOp::conv("exit_proj", 1024, 728, 10, 10, 1, 1, 2));
    addSeparable(net, "exit_sep3", 1024, 1536, 10, 1);
    addSeparable(net, "exit_sep4", 1536, 2048, 10, 1);
    net.add(TensorOp::gemv("fc", 1000, 2048));
    return net;
}

Network
makeVgg()
{
    Network net("vgg");
    struct Spec { std::int64_t in, out, spatial; };
    const Spec specs[] = {
        {3, 64, 224},    {64, 64, 224},
        {64, 128, 112},  {128, 128, 112},
        {128, 256, 56},  {256, 256, 56},  {256, 256, 56},
        {256, 512, 28},  {512, 512, 28},  {512, 512, 28},
        {512, 512, 14},  {512, 512, 14},  {512, 512, 14},
    };
    int idx = 0;
    for (const auto &sp : specs) {
        std::ostringstream prefix;
        prefix << "conv" << idx++;
        net.add(TensorOp::conv(prefix.str(), sp.out, sp.in, sp.spatial,
                               sp.spatial, 3, 3));
    }
    net.add(TensorOp::gemv("fc1", 4096, 512 * 7 * 7));
    net.add(TensorOp::gemv("fc2", 4096, 4096));
    net.add(TensorOp::gemv("fc3", 1000, 4096));
    return net;
}

Network
makeNasNetMobile()
{
    Network net("nasnet_mobile");
    net.add(TensorOp::conv("stem", 32, 3, 111, 111, 3, 3, 2));
    // NASNet cells mix separable 3x3/5x5/7x7 convolutions; we emit the
    // dominant separable operations of the published mobile variant
    // (N = 4 normal cells per stage, filters 44/88/176).
    struct Stage { std::int64_t ch, spatial, cells; };
    const Stage stages[] = {
        {44, 56, 4}, {88, 28, 4}, {176, 14, 4},
    };
    int stage_idx = 0;
    for (const auto &st : stages) {
        // Reduction cell entering the stage.
        {
            std::ostringstream p5, p7;
            p5 << "stage" << stage_idx << "_red_sep5";
            p7 << "stage" << stage_idx << "_red_sep7";
            net.add(TensorOp::depthwise(p5.str() + "_dw", st.ch,
                                        st.spatial, st.spatial, 5, 5, 2));
            net.add(TensorOp::conv(p5.str() + "_pw", st.ch, st.ch,
                                   st.spatial, st.spatial, 1, 1));
            net.add(TensorOp::depthwise(p7.str() + "_dw", st.ch,
                                        st.spatial, st.spatial, 7, 7, 2));
            net.add(TensorOp::conv(p7.str() + "_pw", st.ch, st.ch,
                                   st.spatial, st.spatial, 1, 1));
        }
        for (std::int64_t cell = 0; cell < st.cells; ++cell) {
            std::ostringstream p3, p5;
            p3 << "stage" << stage_idx << "_cell" << cell << "_sep3";
            p5 << "stage" << stage_idx << "_cell" << cell << "_sep5";
            // Two separable 3x3 and two separable 5x5 ops per cell;
            // the repetition index keeps operator names unique.
            for (int rep = 0; rep < 2; ++rep) {
                const std::string r = "_r" + std::to_string(rep);
                net.add(TensorOp::depthwise(p3.str() + r + "_dw", st.ch,
                                            st.spatial, st.spatial, 3, 3,
                                            1));
                net.add(TensorOp::conv(p3.str() + r + "_pw", st.ch,
                                       st.ch, st.spatial, st.spatial, 1,
                                       1));
                net.add(TensorOp::depthwise(p5.str() + r + "_dw", st.ch,
                                            st.spatial, st.spatial, 5, 5,
                                            1));
                net.add(TensorOp::conv(p5.str() + r + "_pw", st.ch,
                                       st.ch, st.spatial, st.spatial, 1,
                                       1));
            }
        }
        ++stage_idx;
    }
    net.add(TensorOp::gemv("fc", 1000, 1056));
    return net;
}

Network
makeEfficientNetV2()
{
    Network net("efficientnet_v2");
    net.add(TensorOp::conv("stem", 24, 3, 192, 192, 3, 3, 2));
    struct Spec {
        bool fused;
        std::int64_t in, out, expand, spatial, stride, repeat;
    };
    const Spec specs[] = {
        {true, 24, 24, 1, 192, 1, 2},
        {true, 24, 48, 4, 192, 2, 4},
        {true, 48, 64, 4, 96, 2, 4},
        {false, 64, 128, 4, 48, 2, 6},
        {false, 128, 160, 6, 24, 1, 9},
        {false, 160, 256, 6, 24, 2, 15},
    };
    int idx = 0;
    for (const auto &sp : specs) {
        std::int64_t in = sp.in;
        std::int64_t spatial = sp.spatial;
        for (std::int64_t rep = 0; rep < sp.repeat; ++rep) {
            std::ostringstream prefix;
            prefix << "mb" << idx++;
            const std::int64_t stride = rep == 0 ? sp.stride : 1;
            if (sp.fused)
                addFusedMbConv(net, prefix.str(), in, sp.out, sp.expand,
                               spatial, stride);
            else
                addMbConv(net, prefix.str(), in, sp.out, sp.expand,
                          spatial, 3, stride);
            spatial /= stride;
            in = sp.out;
        }
    }
    net.add(TensorOp::conv("head_conv", 1280, 256, 12, 12, 1, 1));
    net.add(TensorOp::gemv("fc", 1000, 1280));
    return net;
}

Network
makeConvNeXt()
{
    Network net("convnext");
    net.add(TensorOp::conv("stem", 96, 3, 56, 56, 4, 4, 4));
    struct Stage { std::int64_t ch, spatial, blocks; };
    const Stage stages[] = {
        {96, 56, 3}, {192, 28, 3}, {384, 14, 9}, {768, 7, 3},
    };
    std::int64_t in = 96;
    int stage_idx = 0;
    for (const auto &st : stages) {
        if (st.ch != in) {
            std::ostringstream ds;
            ds << "down" << stage_idx;
            net.add(TensorOp::conv(ds.str(), st.ch, in, st.spatial,
                                   st.spatial, 2, 2, 2));
        }
        for (std::int64_t blk = 0; blk < st.blocks; ++blk) {
            std::ostringstream prefix;
            prefix << "stage" << stage_idx << "_blk" << blk;
            net.add(TensorOp::depthwise(prefix.str() + "_dw7", st.ch,
                                        st.spatial, st.spatial, 7, 7, 1));
            net.add(TensorOp::conv(prefix.str() + "_pw1", st.ch * 4, st.ch,
                                   st.spatial, st.spatial, 1, 1));
            net.add(TensorOp::conv(prefix.str() + "_pw2", st.ch, st.ch * 4,
                                   st.spatial, st.spatial, 1, 1));
        }
        in = st.ch;
        ++stage_idx;
    }
    net.add(TensorOp::gemv("head", 1000, 768));
    return net;
}

Network
makeResUnet()
{
    Network net("resunet");
    const std::int64_t base = 64;
    struct Level { std::int64_t ch, spatial; };
    const Level enc[] = {
        {base, 256}, {base * 2, 128}, {base * 4, 64}, {base * 8, 32},
    };
    std::int64_t in = 3;
    for (std::size_t i = 0; i < 4; ++i) {
        std::ostringstream a, b, sc;
        a << "enc" << i << "_a";
        b << "enc" << i << "_b";
        sc << "enc" << i << "_shortcut";
        net.add(TensorOp::conv(a.str(), enc[i].ch, in, enc[i].spatial,
                               enc[i].spatial, 3, 3));
        net.add(TensorOp::conv(b.str(), enc[i].ch, enc[i].ch,
                               enc[i].spatial, enc[i].spatial, 3, 3));
        net.add(TensorOp::conv(sc.str(), enc[i].ch, in, enc[i].spatial,
                               enc[i].spatial, 1, 1));
        in = enc[i].ch;
    }
    net.add(TensorOp::conv("bridge_a", base * 16, base * 8, 16, 16, 3, 3));
    net.add(TensorOp::conv("bridge_b", base * 16, base * 16, 16, 16, 3, 3));
    const Level dec[] = {
        {base * 8, 32}, {base * 4, 64}, {base * 2, 128}, {base, 256},
    };
    in = base * 16;
    for (std::size_t i = 0; i < 4; ++i) {
        std::ostringstream up, a, b;
        up << "up" << i;
        a << "dec" << i << "_a";
        b << "dec" << i << "_b";
        net.add(TensorOp::conv(up.str(), dec[i].ch, in, dec[i].spatial,
                               dec[i].spatial, 2, 2));
        net.add(TensorOp::conv(a.str(), dec[i].ch, dec[i].ch * 2,
                               dec[i].spatial, dec[i].spatial, 3, 3));
        net.add(TensorOp::conv(b.str(), dec[i].ch, dec[i].ch,
                               dec[i].spatial, dec[i].spatial, 3, 3));
        in = dec[i].ch;
    }
    net.add(TensorOp::conv("out", 1, base, 256, 256, 1, 1));
    return net;
}

Network
makeFsrcnn(std::int64_t height, std::int64_t width)
{
    std::ostringstream name;
    name << "fsrcnn_" << height << "x" << width;
    Network net(name.str());
    // FSRCNN(56, 12, 4): feature extraction, shrinking, 4 mapping
    // layers, expanding, deconvolution (expressed at output scale 2x).
    net.add(TensorOp::conv("feature", 56, 1, height, width, 5, 5));
    net.add(TensorOp::conv("shrink", 12, 56, height, width, 1, 1));
    for (int i = 0; i < 4; ++i) {
        std::ostringstream prefix;
        prefix << "map" << i;
        net.add(TensorOp::conv(prefix.str(), 12, 12, height, width, 3, 3));
    }
    net.add(TensorOp::conv("expand", 56, 12, height, width, 1, 1));
    net.add(TensorOp::conv("deconv", 1, 56, height * 2, width * 2, 9, 9));
    return net;
}

Network
makeDleu()
{
    Network net("dleu");
    // DLSS-like enhancement + upscaling pipeline at 1080p -> 4K:
    // a shallow feature extractor, a recurrent-style enhancement
    // trunk, and pixel-shuffle upsampling.
    const std::int64_t h = 270, w = 480; // processed at quarter res
    net.add(TensorOp::conv("feat1", 32, 12, h, w, 3, 3));
    net.add(TensorOp::conv("feat2", 48, 32, h, w, 3, 3));
    for (int i = 0; i < 6; ++i) {
        std::ostringstream a, b;
        a << "trunk" << i << "_a";
        b << "trunk" << i << "_b";
        net.add(TensorOp::conv(a.str(), 48, 48, h, w, 3, 3));
        net.add(TensorOp::conv(b.str(), 48, 48, h, w, 3, 3));
    }
    net.add(TensorOp::conv("fuse", 64, 48, h, w, 1, 1));
    net.add(TensorOp::conv("up1", 128, 64, h, w, 3, 3));
    net.add(TensorOp::conv("up2", 48, 32, h * 2, w * 2, 3, 3));
    net.add(TensorOp::conv("out", 12, 12, h * 4, w * 4, 3, 3));
    return net;
}

std::vector<std::string>
modelNames()
{
    return {
        "bert",
        "mobilenet",
        "mobilenet_v2",
        "mobilenet_v3_large",
        "mobilenet_v3_small",
        "resnet",
        "srgan",
        "unet",
        "vit",
        "xception",
        "vgg",
        "nasnet_mobile",
        "efficientnet_v2",
        "convnext",
        "resunet",
        "fsrcnn_120x320",
        "fsrcnn_240x640",
        "dleu",
    };
}

Network
makeNetwork(const std::string &name)
{
    if (name == "bert")
        return makeBert();
    if (name == "mobilenet")
        return makeMobileNet();
    if (name == "mobilenet_v2")
        return makeMobileNetV2();
    if (name == "mobilenet_v3_large")
        return makeMobileNetV3Large();
    if (name == "mobilenet_v3_small")
        return makeMobileNetV3Small();
    if (name == "resnet")
        return makeResNet();
    if (name == "srgan")
        return makeSrgan();
    if (name == "unet")
        return makeUnet();
    if (name == "vit")
        return makeVit();
    if (name == "xception")
        return makeXception();
    if (name == "vgg")
        return makeVgg();
    if (name == "nasnet_mobile")
        return makeNasNetMobile();
    if (name == "efficientnet_v2")
        return makeEfficientNetV2();
    if (name == "convnext")
        return makeConvNeXt();
    if (name == "resunet")
        return makeResUnet();
    if (name == "dleu")
        return makeDleu();
    // fsrcnn_<H>x<W>: each size an integer in 1..8192 (up to an 8K
    // frame) spanning its whole field; anything else is not a network
    // name.
    if (name.rfind("fsrcnn_", 0) == 0) {
        constexpr std::int64_t kMaxSide = 8192;
        const std::string_view dims = std::string_view(name).substr(7);
        const auto size = [](std::string_view text) -> std::int64_t {
            std::int64_t v = 0;
            const auto [end, ec] =
                std::from_chars(text.data(), text.data() + text.size(), v);
            return ec == std::errc() && end == text.data() + text.size()
                       ? v
                       : 0;
        };
        const auto sep = dims.find('x');
        if (sep != std::string_view::npos) {
            const std::int64_t h = size(dims.substr(0, sep));
            const std::int64_t w = size(dims.substr(sep + 1));
            if (h > 0 && w > 0 && h <= kMaxSide && w <= kMaxSide)
                return makeFsrcnn(h, w);
        }
    }
    throw std::invalid_argument("unknown network: " + name);
}

} // namespace unico::workload
