/**
 * @file
 * Tests for the DNN model zoo: structural sanity for every network
 * plus MAC-count plausibility checks against the published figures.
 */

#include <gtest/gtest.h>

#include "workload/model_zoo.hh"

namespace zoo = unico::workload;

/** Property suite over every registered model. */
class ZooModels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooModels, ConstructsWithValidLayers)
{
    const zoo::Network net = zoo::makeNetwork(GetParam());
    EXPECT_EQ(net.name(), GetParam());
    ASSERT_GT(net.size(), 3u);
    for (const auto &op : net.ops()) {
        EXPECT_GE(op.n, 1) << op.name;
        EXPECT_GE(op.k, 1) << op.name;
        EXPECT_GE(op.c, 1) << op.name;
        EXPECT_GE(op.y, 1) << op.name;
        EXPECT_GE(op.x, 1) << op.name;
        EXPECT_GE(op.r, 1) << op.name;
        EXPECT_GE(op.s, 1) << op.name;
        EXPECT_GE(op.strideX, 1) << op.name;
        EXPECT_GE(op.strideY, 1) << op.name;
        EXPECT_GT(op.macs(), 0) << op.name;
    }
}

TEST_P(ZooModels, HasDeduplicatedDominantShapes)
{
    const zoo::Network net = zoo::makeNetwork(GetParam());
    const auto dom = net.dominantOps(6);
    ASSERT_FALSE(dom.empty());
    EXPECT_LE(dom.size(), 6u);
    // Dominant shapes are ordered by descending contribution.
    for (std::size_t i = 1; i < dom.size(); ++i) {
        EXPECT_GE(dom[i - 1].count * dom[i - 1].op.macs(),
                  dom[i].count * dom[i].op.macs());
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooModels,
                         ::testing::ValuesIn(zoo::modelNames()));

TEST(ModelZoo, UnknownNameThrows)
{
    EXPECT_THROW(zoo::makeNetwork("nope"), std::invalid_argument);
    EXPECT_THROW(zoo::makeNetwork("fsrcnn_bad"), std::invalid_argument);
}

TEST(ModelZoo, MalformedFsrcnnSizesAreUnknownNetworks)
{
    // Each size is parsed over its whole field: trailing text, a sign,
    // a blank, a missing field, zero, a side past 8192 or an int64
    // overflow is not a size, and the error names the network.
    for (const std::string name :
         {"fsrcnn_ax5", "fsrcnn_5xa", "fsrcnn_5x5junk", "fsrcnn_5junkx5",
          "fsrcnn_x5", "fsrcnn_5x", "fsrcnn_5", "fsrcnn_-5x5",
          "fsrcnn_+5x5", "fsrcnn_ 5x5", "fsrcnn_5x 5", "fsrcnn_0x5",
          "fsrcnn_5x0", "fsrcnn_5x5x5", "fsrcnn_99999999999999999999x5",
          "fsrcnn_5x9223372036854775808", "fsrcnn_8193x1"}) {
        SCOPED_TRACE(name);
        try {
            zoo::makeNetwork(name);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()), "unknown network: " + name);
        }
    }
    EXPECT_EQ(zoo::makeNetwork("fsrcnn_60x80").name(), "fsrcnn_60x80");
    EXPECT_EQ(zoo::makeNetwork("fsrcnn_8192x8192").name(),
              "fsrcnn_8192x8192");
}

TEST(ModelZoo, FsrcnnParametricResolution)
{
    const auto small = zoo::makeFsrcnn(120, 320);
    const auto large = zoo::makeFsrcnn(240, 640);
    EXPECT_EQ(small.name(), "fsrcnn_120x320");
    // 4x the pixels -> ~4x the MACs.
    const double ratio = static_cast<double>(large.totalMacs()) /
                         static_cast<double>(small.totalMacs());
    EXPECT_NEAR(ratio, 4.0, 0.2);
}

TEST(ModelZoo, FsrcnnViaRegistry)
{
    const auto net = zoo::makeNetwork("fsrcnn_120x320");
    EXPECT_EQ(net.totalMacs(), zoo::makeFsrcnn(120, 320).totalMacs());
}

// MAC plausibility versus published numbers (1 sample inference).
// Tolerances are generous: the zoo captures dominant structure, not
// every auxiliary layer.

TEST(ModelZoo, ResNet50MacsNearPublished)
{
    // ~4.1 GMACs at 224x224.
    const double g = static_cast<double>(zoo::makeResNet().totalMacs()) /
                     1e9;
    EXPECT_GT(g, 2.5);
    EXPECT_LT(g, 6.0);
}

TEST(ModelZoo, MobileNetV1MacsNearPublished)
{
    // ~0.57 GMACs.
    const double g =
        static_cast<double>(zoo::makeMobileNet().totalMacs()) / 1e9;
    EXPECT_GT(g, 0.3);
    EXPECT_LT(g, 0.9);
}

TEST(ModelZoo, MobileNetV2MacsNearPublished)
{
    // ~0.3 GMACs.
    const double g =
        static_cast<double>(zoo::makeMobileNetV2().totalMacs()) / 1e9;
    EXPECT_GT(g, 0.15);
    EXPECT_LT(g, 0.6);
}

TEST(ModelZoo, Vgg16MacsNearPublished)
{
    // ~15.5 GMACs.
    const double g = static_cast<double>(zoo::makeVgg().totalMacs()) / 1e9;
    EXPECT_GT(g, 12.0);
    EXPECT_LT(g, 19.0);
}

TEST(ModelZoo, VitMacsNearPublished)
{
    // ViT-B/16: ~17 GMACs.
    const double g = static_cast<double>(zoo::makeVit().totalMacs()) / 1e9;
    EXPECT_GT(g, 10.0);
    EXPECT_LT(g, 25.0);
}

TEST(ModelZoo, BertMacsNearPublished)
{
    // BERT-base, seq 384: ~11 GMACs per 7 * (attention + FFN) terms.
    const double g = static_cast<double>(zoo::makeBert().totalMacs()) / 1e9;
    EXPECT_GT(g, 20.0);
    EXPECT_LT(g, 60.0);
}

TEST(ModelZoo, XceptionMacsNearPublished)
{
    // ~8.4 GMACs at 299x299.
    const double g =
        static_cast<double>(zoo::makeXception().totalMacs()) / 1e9;
    EXPECT_GT(g, 5.0);
    EXPECT_LT(g, 13.0);
}

TEST(ModelZoo, DepthwiseNetworksContainDepthwiseOps)
{
    for (const char *name :
         {"mobilenet", "mobilenet_v2", "mobilenet_v3_large", "xception",
          "convnext"}) {
        const auto net = zoo::makeNetwork(name);
        bool has_dw = false;
        for (const auto &op : net.ops())
            has_dw |= op.kind == zoo::OpKind::DepthwiseConv2D;
        EXPECT_TRUE(has_dw) << name;
    }
}

TEST(ModelZoo, TransformersAreGemmDominated)
{
    for (const char *name : {"bert", "vit"}) {
        const auto net = zoo::makeNetwork(name);
        std::int64_t gemm_macs = 0;
        for (const auto &op : net.ops())
            if (op.kind == zoo::OpKind::Gemm)
                gemm_macs += op.macs();
        EXPECT_GT(static_cast<double>(gemm_macs) /
                      static_cast<double>(net.totalMacs()),
                  0.5)
            << name;
    }
}

TEST(ModelZoo, ModelNamesAllResolvable)
{
    for (const auto &name : zoo::modelNames())
        EXPECT_NO_THROW(zoo::makeNetwork(name)) << name;
}
