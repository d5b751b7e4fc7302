/**
 * @file
 * End-to-end tests of the operator CLI: diablo_run's JSON artifact and
 * argument validation, and a small diablo_sweep grid.  The binaries
 * under test are injected by CMake as DIABLO_RUN_BIN / DIABLO_SWEEP_BIN
 * (tools_test therefore depends on both targets being built).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "diablo_cli_" + name;
}

/** Run a shell command, returning its exit code (-1 on system error). */
int
runCmd(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status < 0) {
        return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Tiny incast scenario shared by the artifact tests (fast: <1 s). */
const char kTinyIncast[] =
    " incast incast.servers=2 incast.iterations=2 incast.block_bytes=8192";

TEST(DiabloRunCli, JsonArtifactHasTheGoldenShape)
{
    const std::string json = tmpPath("artifact.json");
    const std::string cmd = std::string(DIABLO_RUN_BIN) + kTinyIncast +
                            " --json " + json + " > /dev/null 2>&1";
    ASSERT_EQ(runCmd(cmd), 0);

    const std::string doc = slurp(json);
    for (const char *needle :
         {"\"schema\": 1", "\"workload\": \"incast\"",
          "\"name\": \"seq\"", "\"results\":", "\"goodput_mbps\":",
          "\"latencies\":", "\"iteration_us\":", "\"counters\":",
          "\"network\":", "\"datapath\":", "\"partitions\": [",
          "\"pool_makes\":", "\"mem\":", "\n  \"fingerprint\": \"0x",
          "\"config\":", "\"incast.servers\": \"2\""}) {
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }
    // No fault plan, no telemetry: those sections must be absent.
    EXPECT_EQ(doc.find("\"faults\":"), std::string::npos);
    EXPECT_EQ(doc.find("\"telemetry\":"), std::string::npos);
    std::remove(json.c_str());
}

TEST(DiabloRunCli, TelemetryStreamsAndIsRecordedInTheArtifact)
{
    const std::string json = tmpPath("telemetry.json");
    const std::string stream = json + ".telemetry.jsonl";
    const std::string cmd = std::string(DIABLO_RUN_BIN) + kTinyIncast +
                            " telemetry.period=10000 --json " + json +
                            " > /dev/null 2>&1";
    ASSERT_EQ(runCmd(cmd), 0);

    EXPECT_NE(slurp(json).find("\"telemetry\":"), std::string::npos);
    const std::string rows = slurp(stream);
    EXPECT_NE(rows.find("\"t_us\":"), std::string::npos);
    EXPECT_NE(rows.find("\"goodput_mbps\":"), std::string::npos);
    std::remove(json.c_str());
    std::remove(stream.c_str());
}

TEST(DiabloRunCli, RejectsMalformedThreads)
{
    for (const char *bad : {"abc", "-3", "4x", ""}) {
        const std::string cmd = std::string(DIABLO_RUN_BIN) +
                                " incast --threads '" + bad +
                                "' > /dev/null 2>&1";
        EXPECT_EQ(runCmd(cmd), 2) << "'" << bad << "'";
    }
    // Flag=value spelling is covered too.
    const std::string cmd = std::string(DIABLO_RUN_BIN) +
                            " incast --threads=zzz > /dev/null 2>&1";
    EXPECT_EQ(runCmd(cmd), 2);
}

TEST(DiabloRunCli, IncastRunsUntilDoneNotToATimeCap)
{
    // Collapsed 1-rack incast at ~15 Mbps: 64 iterations of 8 x 256 KB
    // take ~72 simulated seconds.  The run loop ends on completion (or
    // on an idle engine), never on a fixed simulated-time limit.
    const std::string json = tmpPath("long_incast.json");
    const std::string cmd = std::string(DIABLO_RUN_BIN) +
                            " incast incast.iterations=64 --json " +
                            json + " > /dev/null 2>&1";
    ASSERT_EQ(runCmd(cmd), 0);

    const std::string doc = slurp(json);
    EXPECT_NE(doc.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(doc.find("\"requests_completed\": 64"), std::string::npos);
    const char key[] = "\"elapsed_us\": ";
    const size_t at = doc.find(key);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GT(std::strtod(doc.c_str() + at + sizeof(key) - 1, nullptr),
              60e6);
    std::remove(json.c_str());
}

TEST(DiabloRunCli, IncastThatCannotFinishExitsOne)
{
    // A sender crashes mid-transfer and never reboots: the client waits
    // forever with nothing scheduled, so the engine goes idle and the
    // run reports the incomplete transfer instead of spinning.
    for (const char *engine :
         {" incast", " incast incast.racks=2 --engine par --threads 2"}) {
        const std::string out = tmpPath("stuck.txt");
        const std::string cmd =
            std::string(DIABLO_RUN_BIN) + engine +
            " fault.0.kind=server_crash fault.0.at_us=100000"
            " fault.0.node=1 > " + out + " 2>&1";
        EXPECT_EQ(runCmd(cmd), 1) << engine;
        EXPECT_NE(slurp(out).find("incast did not complete"),
                  std::string::npos)
            << engine;
        std::remove(out.c_str());
    }
}

TEST(DiabloRunCli, EngineIsSeqOrPar)
{
    // The partitioned engine is the only engine: `single` is gone and
    // any other value is a usage error, reported with the usage text.
    for (const char *bad : {"single", "fast", ""}) {
        const std::string out = tmpPath("engine.txt");
        const std::string cmd = std::string(DIABLO_RUN_BIN) +
                                " incast --engine '" + bad + "' > " +
                                out + " 2>&1";
        EXPECT_EQ(runCmd(cmd), 2) << "'" << bad << "'";
        EXPECT_NE(slurp(out).find("usage:"), std::string::npos)
            << "'" << bad << "'";
        std::remove(out.c_str());
    }
    // --processes is not a flag: a stale script that passes it gets a
    // usage error, not a silent seq run.
    const std::string out = tmpPath("processes.txt");
    const std::string cmd = std::string(DIABLO_RUN_BIN) +
                            " incast --processes 2 > " + out + " 2>&1";
    EXPECT_EQ(runCmd(cmd), 2);
    EXPECT_NE(slurp(out).find("not a key=value assignment"),
              std::string::npos);
    std::remove(out.c_str());
}

TEST(DiabloSweepCli, TwoPointEngineGridCrossChecks)
{
    const std::string dir = tmpPath("sweep");
    const std::string spec = tmpPath("sweep.spec");
    {
        std::ofstream out(spec);
        out << "sweep.name = cli_smoke\n"
            << "workload = incast\n"
            << "engine = seq,par   # fingerprint cross-check axis\n"
            << "incast.servers = 2\n"
            << "incast.iterations = 2\n"
            << "incast.block_bytes = 8192\n"
            << "sweep.jobs = 2\n";
    }
    const std::string cmd = std::string(DIABLO_SWEEP_BIN) + " " + spec +
                            " --out " + dir + " > " + dir + ".log 2>&1";
    ASSERT_EQ(runCmd(cmd), 0) << slurp(dir + ".log");

    const std::string report = slurp(dir + "/report.json");
    EXPECT_NE(report.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(report.find("\"engine_cross_checks\":"),
              std::string::npos);
    EXPECT_NE(report.find("\"match\": true"), std::string::npos);
    EXPECT_EQ(report.find("\"match\": false"), std::string::npos);

    // Per-run artifacts exist and fingerprint-match across engines.
    const std::string log = slurp(dir + ".log");
    EXPECT_NE(log.find("MATCH"), std::string::npos);
    EXPECT_EQ(log.find("MISMATCH"), std::string::npos);
    struct stat st;
    EXPECT_EQ(stat((dir + "/run000_engine_seq.json").c_str(), &st), 0);
    EXPECT_EQ(stat((dir + "/run001_engine_par.json").c_str(), &st), 0);
}

TEST(DiabloSweepCli, EngineLessRunIsLabelledSeq)
{
    // No `engine` key: diablo_run runs its default engine, and the
    // table says which one.
    const std::string dir = tmpPath("sweep_noengine");
    const std::string spec = tmpPath("noengine.spec");
    {
        std::ofstream out(spec);
        out << "workload = incast\n"
            << "incast.servers = 2\n"
            << "incast.iterations = 2\n"
            << "incast.block_bytes = 8192\n";
    }
    const std::string cmd = std::string(DIABLO_SWEEP_BIN) + " " + spec +
                            " --out " + dir + " > " + dir + ".log 2>&1";
    ASSERT_EQ(runCmd(cmd), 0) << slurp(dir + ".log");
    EXPECT_NE(slurp(dir + ".log").find("| base | incast   | seq    |"),
              std::string::npos);
}

TEST(DiabloSweepCli, SpecWithoutWorkloadFails)
{
    const std::string spec = tmpPath("bad.spec");
    {
        std::ofstream out(spec);
        out << "engine = seq\n";
    }
    const std::string cmd = std::string(DIABLO_SWEEP_BIN) + " " + spec +
                            " --out " + tmpPath("bad_out") +
                            " > /dev/null 2>&1";
    EXPECT_NE(runCmd(cmd), 0);
}

} // namespace
