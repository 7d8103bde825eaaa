/**
 * @file
 * Shared experiment drivers for the evaluation harness (bench/): a
 * declarative mission spec, CSV emission of trajectories and series,
 * and paper-style table printing. Every bench binary regenerating a
 * table/figure of the paper builds on these.
 */

#ifndef ROSE_CORE_EXPERIMENT_HH
#define ROSE_CORE_EXPERIMENT_HH

#include <charconv>
#include <string>
#include <string_view>

#include "core/cosim.hh"
#include "runtime/mpc_app.hh"
#include "util/csv.hh"

namespace rose::core {

/** Declarative description of one closed-loop mission. */
struct MissionSpec
{
    std::string world = "tunnel";
    /** "quadrotor" (default) or "rover" (the artifact's car option). */
    std::string vehicle = "quadrotor";
    std::string socName = "A";
    int modelDepth = 14;
    double velocity = 3.0;
    double initialYawDeg = 0.0;
    Cycles syncGranularity = 10 * kMegaCycles;
    runtime::RuntimeMode mode = runtime::RuntimeMode::Static;
    uint64_t seed = 1;
    double maxSimSeconds = 60.0;
    /** Transport fault injection for resilience sweeps (off by
     *  default; copied verbatim into CosimConfig::faults). */
    bridge::FaultConfig faults;
    /** Enable the classical-fallback (degraded-mode) controller. */
    bool degradedMode = false;

    /** Construct the full co-simulation configuration. */
    CosimConfig toConfig() const;

    /** One-line description for table rows/logs. */
    std::string label() const;

    bool operator==(const MissionSpec &) const = default;
};

/**
 * Strict number parse: true only when all of @p text is one number of
 * type T (std::from_chars syntax: no sign on unsigned types, no
 * leading space, no trailing characters). @p out is set only then.
 */
template <class T>
bool
parseNumber(std::string_view text, T &out)
{
    T v{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/*
 * The text form of a MissionSpec: whitespace-separated `key=value`
 * tokens over one field table (experiment.cc), e.g.
 * "soc=B mode=dynamic velocity=6 yaw=20 sim-seconds=10". The CLIs read
 * the same keys as `--key value` flags. The functions below throw
 * std::invalid_argument naming what they reject.
 */

/** The tokens of the fields where @p spec differs from MissionSpec{},
 *  in table order; doubles print in shortest round-trip form. */
std::string formatMissionSpec(const MissionSpec &spec);

/** Apply the tokens of @p text onto @p base, then validate. Rejects an
 *  unknown key, a value that is not wholly one value of its field's
 *  type, and a spec validateMissionSpec rejects. */
MissionSpec parseMissionSpec(std::string_view text, MissionSpec base = {});

/**
 * The range rules every admitted spec meets: depth in the ResNet zoo,
 * finite non-negative velocity, finite yaw, sim-seconds in (0, 3600],
 * positive sync granularity and a valid fault config
 * (bridge::faultConfigError). Names (world, vehicle, soc) are checked
 * where they are resolved, by toConfig() and the co-simulation.
 */
void validateMissionSpec(const MissionSpec &spec);

/**
 * When argv[i] is `--<key>` for a field of the text form, set that
 * field from argv[i + 1], advance @p i past the value and return true;
 * otherwise return false.
 */
bool consumeMissionSpecFlag(MissionSpec &spec, int argc, char **argv,
                            int &i);

/** Usage text for the spec flags: one `--key VALUES (default D)` line
 *  per field. */
std::string missionSpecUsage();

/** Run one mission to completion/timeout. */
MissionResult runMission(const MissionSpec &spec);

/**
 * The canonical trajectory CSV's header line, newline included
 * (columns: t,x,y,z,yaw,speed,offset,collisions,cmd_fwd,cmd_lat,cmd_yaw).
 */
std::string_view trajectoryCsvHeader();

/** Float cells of a canonical CSV row: every column but collisions. */
constexpr size_t kTrajectoryCsvFloatCells = 10;

/** Room one canonical CSV row needs: ten float cells, the u64
 *  collision count (at most 20 digits), separators and newline. */
constexpr size_t kTrajectoryCsvRowMaxChars =
    kTrajectoryCsvFloatCells * (kCsvCellMaxChars + 1) + 21;

/**
 * Render the canonical CSV row of @p s, newline included, at @p out
 * (kTrajectoryCsvRowMaxChars bytes) and return one past its end. When
 * @p printed is non-null it receives, in column order, the
 * kTrajectoryCsvFloatCells values the float cells denote (see
 * formatCsvCell): each cell is formatted once for both.
 */
char *renderTrajectoryCsvRow(char *out, const TrajectorySample &s,
                             double *printed = nullptr);

/** Write a mission's canonical trajectory CSV to @p path, through
 *  CsvWriter. */
void writeTrajectoryCsv(const std::string &path, const MissionResult &r);

/**
 * The canonical trajectory CSV: trajectoryCsvHeader() followed by one
 * renderTrajectoryCsvRow per sample. This is the golden-trace form:
 * tests/test_golden.cc hashes it (util/hash.hh FNV-1a), so its column
 * set and formatting are part of the regression surface — format
 * changes require regenerating the checked-in golden hashes.
 */
std::string trajectoryCsvString(const MissionResult &r);

/**
 * The canonical CSV of a bare sample vector — what a serve client
 * uses to re-encode a binary-streamed trajectory before checking its
 * hash against the server's.
 */
std::string
trajectoryCsvString(const std::vector<TrajectorySample> &trajectory);

/** Format seconds as "12.34s" or "DNF" for incomplete missions. */
std::string missionTimeString(const MissionResult &r);

/** Outcome of a classical-MPC mission (Section 6 workload). */
struct MpcMissionResult
{
    bool completed = false;
    double missionTime = 0.0;
    uint64_t collisions = 0;
    double avgSpeed = 0.0;
    std::vector<runtime::MpcRecord> log;
    soc::SocStats socStats;

    /** Mean request-to-command latency [s]. */
    double avgLatencySeconds(double clock_hz = 1e9) const;
};

/**
 * Run a mission with the vision-aided MPC companion application
 * instead of the DNN controller (same environment, bridge,
 * synchronizer, and SoC engine; only the target software differs).
 * The spec's modelDepth is ignored.
 */
MpcMissionResult runMpcMission(const MissionSpec &spec,
                               const runtime::MpcConfig &mpc = {});

} // namespace rose::core

#endif // ROSE_CORE_EXPERIMENT_HH
