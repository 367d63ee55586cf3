/**
 * @file
 * Tests of the power substrate: trace container and .ptrace IO, the
 * Wattch-style unit model, and the synthetic CPU trace generator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "base/errors.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "floorplan/presets.hh"
#include "power/power_trace.hh"
#include "power/synthetic_cpu.hh"
#include "power/wattch_model.hh"

namespace irtherm
{
namespace
{

TEST(PowerTrace, BasicAccounting)
{
    PowerTrace t({"a", "b"}, 1e-3);
    t.addSample({1.0, 2.0});
    t.addSample({3.0, 4.0});
    EXPECT_EQ(t.sampleCount(), 2u);
    EXPECT_DOUBLE_EQ(t.totalPower(0), 3.0);
    EXPECT_DOUBLE_EQ(t.averageTotalPower(), 5.0);
    const auto avg = t.averagePowers();
    EXPECT_DOUBLE_EQ(avg[0], 2.0);
    const auto peak = t.peakPowers();
    EXPECT_DOUBLE_EQ(peak[1], 4.0);
}

TEST(PowerTrace, RejectsBadSamples)
{
    PowerTrace t({"a"}, 1e-3);
    EXPECT_THROW(t.addSample({1.0, 2.0}), FatalError);
    EXPECT_THROW(t.addSample({-1.0}), FatalError);
}

TEST(PowerTrace, PtraceRoundTrip)
{
    PowerTrace t({"IntReg", "Dcache"}, 3.3e-6);
    t.addSample({5.5, 2.25});
    t.addSample({0.0, 1.0});
    std::stringstream ss;
    t.writePtrace(ss);
    const PowerTrace u = PowerTrace::parsePtrace(ss, 3.3e-6);
    ASSERT_EQ(u.sampleCount(), 2u);
    EXPECT_EQ(u.unitNames()[1], "Dcache");
    EXPECT_NEAR(u.sample(0)[0], 5.5, 1e-9);
    EXPECT_NEAR(u.sample(1)[1], 1.0, 1e-9);
}

TEST(PowerTrace, PtraceParserRejectsRaggedRows)
{
    std::istringstream in("a b\n1.0\n");
    EXPECT_THROW(PowerTrace::parsePtrace(in, 1e-3), FatalError);
}

TEST(PowerTrace, PtraceParserAcceptsEveryStrtodForm)
{
    // '+' signs, exponents, tabs, CRLF line ends, comments and blank
    // lines, plus the forms only strtod takes (hex, a NaN payload,
    // an underflow); every value must be the double strtod gives.
    const char *text = "# units\r\n"
                       "\n"
                       "\tIntReg  Dcache\tL2 \r\n"
                       "+1.5\t2.5e-3  +3E+2\r\n"
                       "   \r\n"
                       "# between samples\n"
                       "0.1 .5 7.\n"
                       "1e0\t\t0x1p-2 +0\r\n"
                       "0.30000000000000004 4.9406564584124654e-324 "
                       "1.7976931348623157e308\n"
                       "Inf nan(123) 1e-400\n";
    std::istringstream in(text);
    const PowerTrace t = PowerTrace::parsePtrace(in, 1e-3);
    ASSERT_EQ(t.unitCount(), 3u);
    EXPECT_EQ(t.unitNames()[0], "IntReg");
    EXPECT_EQ(t.unitNames()[2], "L2");
    const std::vector<std::vector<const char *>> want = {
        {"+1.5", "2.5e-3", "+3E+2"},
        {"0.1", ".5", "7."},
        {"1e0", "0x1p-2", "+0"},
        {"0.30000000000000004", "4.9406564584124654e-324",
         "1.7976931348623157e308"},
        {"Inf", "nan(123)", "1e-400"}};
    ASSERT_EQ(t.sampleCount(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
        for (std::size_t u = 0; u < 3; ++u) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(t.sample(s)[u]),
                      std::bit_cast<std::uint64_t>(
                          std::strtod(want[s][u], nullptr)))
                << want[s][u];
        }
    }
}

TEST(PowerTrace, PtraceValuesAreBitEqualToStrtod)
{
    // Seeded decimal strings with 1 to 20 significant digits and
    // magnitudes between about 1e-300 and 1e300.
    Rng rng(53);
    std::string text = "a b c d\n";
    std::vector<std::string> fields;
    for (int row = 0; row < 250; ++row) {
        for (int u = 0; u < 4; ++u) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.*e",
                          static_cast<int>(rng.index(20)),
                          rng.uniform() *
                              std::pow(10.0, rng.uniform(-300, 300)));
            fields.push_back(buf);
            text += buf;
            text += u < 3 ? " " : "\n";
        }
    }
    std::istringstream in(text);
    const PowerTrace t = PowerTrace::parsePtrace(in, 1e-3);
    ASSERT_EQ(t.sampleCount(), 250u);
    for (std::size_t k = 0; k < fields.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t.sample(k / 4)[k % 4]),
                  std::bit_cast<std::uint64_t>(
                      std::strtod(fields[k].c_str(), nullptr)))
            << fields[k];
    }
}

TEST(PowerTrace, PtraceParserErrorTextsNameTheLine)
{
    const auto message = [](const char *text) -> std::string {
        std::istringstream in(text);
        try {
            PowerTrace::parsePtrace(in, 1e-3);
        } catch (const FatalError &e) {
            return e.what();
        }
        return "no error";
    };
    EXPECT_EQ(message("a b\n1 2\n\n1 2 3\n"),
              "fatal: ptrace line 4: expected 2 values, got 3");
    EXPECT_EQ(message("a b\r\n1 2\r\n3\r\n"),
              "fatal: ptrace line 3: expected 2 values, got 1");
    EXPECT_EQ(message("a b\n1 2\n3 1.5e\n"),
              "fatal: ptrace line 3: invalid number '1.5e'");
    EXPECT_EQ(message("a b\n1 2,5\n"),
              "fatal: ptrace line 2: invalid number '2,5'");
    EXPECT_EQ(message("a b\n1 --2\n"),
              "fatal: ptrace line 2: invalid number '--2'");
    EXPECT_EQ(message("# only comments\n\n"),
              "fatal: ptrace: missing header line");
    std::istringstream bad("a\nx1\n");
    EXPECT_THROW(PowerTrace::parsePtrace(bad, 1e-3), ConfigError);
}

TEST(PowerTrace, ReorderedForFloorplan)
{
    const Floorplan fp = floorplans::alphaEv6();
    // Build a trace in a scrambled order.
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    std::vector<std::string> names = model.unitNames();
    std::reverse(names.begin(), names.end());
    PowerTrace t(names, 1e-3);
    std::vector<double> row(names.size());
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = static_cast<double>(i);
    t.addSample(row);

    const PowerTrace r = t.reorderedFor(fp);
    for (std::size_t b = 0; b < fp.blockCount(); ++b) {
        EXPECT_EQ(r.unitNames()[b], fp.block(b).name);
        // The value must follow the name through the reorder.
        const auto it = std::find(names.begin(), names.end(),
                                  fp.block(b).name);
        const auto col =
            static_cast<std::size_t>(it - names.begin());
        EXPECT_DOUBLE_EQ(r.sample(0)[b], static_cast<double>(col));
    }
}

TEST(PowerTrace, DecimatedAverages)
{
    PowerTrace t({"a"}, 1.0);
    for (int i = 0; i < 5; ++i)
        t.addSample({static_cast<double>(i)});
    const PowerTrace d = t.decimated(2);
    ASSERT_EQ(d.sampleCount(), 2u); // trailing partial group dropped
    EXPECT_DOUBLE_EQ(d.sample(0)[0], 0.5);
    EXPECT_DOUBLE_EQ(d.sample(1)[0], 2.5);
    EXPECT_DOUBLE_EQ(d.sampleInterval(), 2.0);
}

TEST(WattchModel, Ev6UnitsMatchFloorplan)
{
    const Floorplan fp = floorplans::alphaEv6();
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    ASSERT_EQ(model.unitCount(), fp.blockCount());
    for (const Block &b : fp.blocks())
        EXPECT_NO_THROW(model.unitIndex(b.name));
}

TEST(WattchModel, Athlon64UnitsMatchFloorplan)
{
    const Floorplan fp = floorplans::athlon64();
    const WattchPowerModel model = WattchPowerModel::athlon64();
    ASSERT_EQ(model.unitCount(), fp.blockCount());
    for (const Block &b : fp.blocks())
        EXPECT_NO_THROW(model.unitIndex(b.name));
}

TEST(WattchModel, DynamicPowerScalesWithActivity)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    const std::vector<double> idle(model.unitCount(), 0.0);
    const std::vector<double> busy(model.unitCount(), 1.0);
    const auto p_idle = model.dynamicPower(idle);
    const auto p_busy = model.dynamicPower(busy);
    for (std::size_t i = 0; i < model.unitCount(); ++i) {
        EXPECT_GE(p_idle[i], 0.0);
        EXPECT_GE(p_busy[i], p_idle[i]);
        EXPECT_NEAR(p_busy[i], model.specs()[i].peakDynamic, 1e-12);
    }
}

TEST(WattchModel, DvfsScalesCubically)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    const std::vector<double> act(model.unitCount(), 1.0);
    const auto full = model.dynamicPower(act, 1.0, 1.0);
    const auto half = model.dynamicPower(act, 0.5, 0.5);
    for (std::size_t i = 0; i < model.unitCount(); ++i)
        EXPECT_NEAR(half[i], 0.125 * full[i], 1e-12);
}

TEST(WattchModel, LeakageGrowsWithTemperature)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    const std::vector<double> cold(model.unitCount(), 320.0);
    const std::vector<double> hot(model.unitCount(), 380.0);
    const auto p_cold = model.leakagePower(cold);
    const auto p_hot = model.leakagePower(hot);
    for (std::size_t i = 0; i < model.unitCount(); ++i) {
        if (model.specs()[i].leakageAtRef > 0.0) {
            EXPECT_GT(p_hot[i], p_cold[i]);
            // exp(0.015 * 60) ~ 2.46
            EXPECT_NEAR(p_hot[i] / p_cold[i], std::exp(0.9), 1e-6);
        }
    }
}

TEST(SyntheticCpu, SampleIntervalMatchesPaper)
{
    // 10 K cycles at 3 GHz = 3.33 us (the paper's Fig. 12 x-axis).
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(model, workloads::gcc());
    EXPECT_NEAR(cpu.sampleInterval(), 3.333e-6, 1e-8);
}

TEST(SyntheticCpu, TraceIsDeterministicUnderSeed)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu a(model, workloads::gcc());
    SyntheticCpu b(model, workloads::gcc());
    const PowerTrace ta = a.generate(100);
    const PowerTrace tb = b.generate(100);
    for (std::size_t s = 0; s < 100; ++s)
        for (std::size_t u = 0; u < model.unitCount(); ++u)
            EXPECT_DOUBLE_EQ(ta.sample(s)[u], tb.sample(s)[u]);
}

TEST(SyntheticCpu, GccIsIntegerDominated)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(model, workloads::gcc());
    const PowerTrace t = cpu.generate(2000);
    const auto avg = t.averagePowers();
    const double int_power = avg[model.unitIndex("IntExec")] +
                             avg[model.unitIndex("IntReg")];
    const double fp_power = avg[model.unitIndex("FPAdd")] +
                            avg[model.unitIndex("FPMul")];
    EXPECT_GT(int_power, 3.0 * fp_power);
}

TEST(SyntheticCpu, ArtExercisesFloatingPoint)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu gcc_cpu(model, workloads::gcc());
    SyntheticCpu art_cpu(model, workloads::art());
    const auto gcc_avg = gcc_cpu.generate(2000).averagePowers();
    const auto art_avg = art_cpu.generate(2000).averagePowers();
    EXPECT_GT(art_avg[model.unitIndex("FPMul")],
              2.0 * gcc_avg[model.unitIndex("FPMul")]);
}

TEST(SyntheticCpu, McfIsMemoryBoundAndCooler)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu gcc_cpu(model, workloads::gcc());
    SyntheticCpu mcf_cpu(model, workloads::mcf());
    const double gcc_total =
        gcc_cpu.generate(2000).averageTotalPower();
    const double mcf_total =
        mcf_cpu.generate(2000).averageTotalPower();
    EXPECT_LT(mcf_total, gcc_total); // low IPC burns less
}

TEST(SyntheticCpu, Bzip2IsHotIntegerWorkload)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu bzip(model, workloads::bzip2());
    SyntheticCpu mcf_cpu(model, workloads::mcf());
    // The high-ILP compressor burns more total power than the
    // memory-bound pointer chaser.
    EXPECT_GT(bzip.generate(2000).averageTotalPower(),
              mcf_cpu.generate(2000).averageTotalPower());
}

TEST(SyntheticCpu, SwimStressesFpAndL2)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu swim_cpu(model, workloads::swim());
    SyntheticCpu bzip(model, workloads::bzip2());
    const auto swim_avg = swim_cpu.generate(2000).averagePowers();
    const auto bzip_avg = bzip.generate(2000).averagePowers();
    EXPECT_GT(swim_avg[model.unitIndex("FPMul")],
              2.0 * bzip_avg[model.unitIndex("FPMul")]);
    EXPECT_GT(swim_avg[model.unitIndex("L2")],
              bzip_avg[model.unitIndex("L2")]);
}

TEST(SyntheticCpu, ActivityBoundsRespected)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(model, workloads::gcc());
    for (const InstructionMix &mix : workloads::gcc().phases) {
        const auto act = cpu.unitActivity(mix);
        for (double a : act) {
            EXPECT_GE(a, 0.0);
            EXPECT_LE(a, 1.0);
        }
    }
}

TEST(SyntheticCpu, PowerNeverExceedsPeak)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(model, workloads::gcc());
    const PowerTrace t = cpu.generate(500);
    const auto peak = t.peakPowers();
    for (std::size_t u = 0; u < model.unitCount(); ++u)
        EXPECT_LE(peak[u], model.specs()[u].peakDynamic + 1e-9);
}

} // namespace
} // namespace irtherm
