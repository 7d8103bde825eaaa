#include "experiment.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "dnn/resnet.hh"

namespace rose::core {

CosimConfig
MissionSpec::toConfig() const
{
    CosimConfig cfg;
    cfg.env.worldName = world;
    cfg.env.vehicleName = vehicle;
    cfg.env.initialYawDeg = initialYawDeg;
    cfg.env.seed = seed;
    if (vehicle == "rover" || vehicle == "car") {
        // The classifier's learned geometry must match the rover's
        // camera mast height.
        cfg.app.estimator.camAltitude = cfg.env.rover.sensorHeight;
    }
    cfg.soc = soc::configByName(socName);
    cfg.app.mode = mode;
    cfg.app.modelDepth = modelDepth;
    cfg.app.policy.forwardVelocity = velocity;
    cfg.app.seed = seed * 7919 + 13;
    cfg.sync.cyclesPerSync = syncGranularity;
    cfg.maxSimSeconds = maxSimSeconds;
    cfg.faults = faults;
    cfg.app.degraded.enabled = degradedMode;
    return cfg;
}

std::string
MissionSpec::label() const
{
    std::ostringstream os;
    os << world << "/cfg" << socName << "/ResNet" << modelDepth << "@"
       << velocity << "mps";
    if (initialYawDeg != 0.0)
        os << "/yaw" << initialYawDeg;
    if (mode == runtime::RuntimeMode::Dynamic)
        os << "/dynamic";
    return os.str();
}

namespace {

using FieldRef = std::variant<std::string *, int *, double *, uint64_t *,
                              bool *, runtime::RuntimeMode *>;

/** One row of the text form: key, usage placeholder, field. */
struct SpecField
{
    const char *key;
    const char *values;
    FieldRef (*ref)(MissionSpec &);
};

#define ROSE_SPEC_FIELD(key, values, field)                                  \
    {key, values, [](MissionSpec &s) -> FieldRef { return &s.field; }}

/*
 * Every wire-reachable field, once (serve/proto.cc's codec is the
 * binary form of the same fields). A new MissionSpec field gets a row
 * here and a slot in that codec; nothing else lists them.
 */
const SpecField kSpecFields[] = {
    ROSE_SPEC_FIELD("world", "tunnel|s-shape|zigzag", world),
    ROSE_SPEC_FIELD("vehicle", "quadrotor|rover", vehicle),
    ROSE_SPEC_FIELD("soc", "A|B|C", socName),
    ROSE_SPEC_FIELD("depth", "6|11|14|18|34", modelDepth),
    ROSE_SPEC_FIELD("velocity", "M/S", velocity),
    ROSE_SPEC_FIELD("yaw", "DEG", initialYawDeg),
    ROSE_SPEC_FIELD("sync-granularity", "CYCLES", syncGranularity),
    ROSE_SPEC_FIELD("mode", "static|dynamic", mode),
    ROSE_SPEC_FIELD("seed", "N", seed),
    ROSE_SPEC_FIELD("sim-seconds", "S", maxSimSeconds),
    ROSE_SPEC_FIELD("degraded", "0|1", degradedMode),
    ROSE_SPEC_FIELD("fault.enabled", "0|1", faults.enabled),
    ROSE_SPEC_FIELD("fault.drop", "P", faults.dropProb),
    ROSE_SPEC_FIELD("fault.corrupt", "P", faults.corruptProb),
    ROSE_SPEC_FIELD("fault.reorder", "P", faults.reorderProb),
    ROSE_SPEC_FIELD("fault.delay", "P", faults.delayProb),
    ROSE_SPEC_FIELD("fault.delay-min", "OPS", faults.delayOpsMin),
    ROSE_SPEC_FIELD("fault.delay-max", "OPS", faults.delayOpsMax),
    ROSE_SPEC_FIELD("fault.protect-sync", "0|1", faults.protectSyncPackets),
    ROSE_SPEC_FIELD("fault.seed", "N", faults.seed),
};

#undef ROSE_SPEC_FIELD

const SpecField *
findField(std::string_view key)
{
    for (const SpecField &f : kSpecFields)
        if (key == f.key)
            return &f;
    return nullptr;
}

/** The spellings of a bool and of a RuntimeMode, by value. */
constexpr const char *kBoolNames[] = {"0", "1"};
constexpr const char *kModeNames[] = {"static", "dynamic"};

std::string
formatField(FieldRef ref)
{
    return std::visit(
        [](auto *v) -> std::string {
            using T = std::remove_pointer_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
                return *v;
            } else if constexpr (std::is_same_v<T, bool>) {
                return kBoolNames[*v];
            } else if constexpr (std::is_same_v<T, runtime::RuntimeMode>) {
                return kModeNames[int(*v)];
            } else {
                char buf[32];
                return std::string(buf, std::to_chars(buf, buf + 32, *v).ptr);
            }
        },
        ref);
}

/** Set the field named @p key from @p text (no range check). */
void
setField(MissionSpec &spec, std::string_view key, std::string_view text)
{
    const SpecField *f = findField(key);
    if (!f)
        throw std::invalid_argument("unknown mission spec key '" +
                                    std::string(key) + "'");
    auto byName = [text](auto &v, const char *const(&names)[2]) {
        for (int i = 0; i < 2; ++i)
            if (text == names[i])
                v = std::remove_reference_t<decltype(v)>(i);
        return text == names[0] || text == names[1];
    };
    bool ok = std::visit(
        [&](auto *v) {
            using T = std::remove_pointer_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
                *v = text;
                return !text.empty();
            } else if constexpr (std::is_same_v<T, bool>) {
                return byName(*v, kBoolNames);
            } else if constexpr (std::is_same_v<T, runtime::RuntimeMode>) {
                return byName(*v, kModeNames);
            } else {
                return parseNumber(text, *v);
            }
        },
        f->ref(spec));
    if (!ok)
        throw std::invalid_argument("bad value for " + std::string(key) +
                                    ": '" + std::string(text) +
                                    "' (expected " + f->values + ")");
}

} // namespace

std::string
formatMissionSpec(const MissionSpec &spec)
{
    MissionSpec s = spec, d;
    std::string out;
    for (const SpecField &f : kSpecFields) {
        std::string v = formatField(f.ref(s));
        if (v != formatField(f.ref(d)))
            out += (out.empty() ? "" : " ") + std::string(f.key) + "=" + v;
    }
    return out;
}

MissionSpec
parseMissionSpec(std::string_view text, MissionSpec base)
{
    std::istringstream in{std::string(text)};
    for (std::string token; in >> token;) {
        size_t eq = token.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("expected key=value, got '" +
                                        token + "'");
        setField(base, std::string_view(token).substr(0, eq),
                 std::string_view(token).substr(eq + 1));
    }
    validateMissionSpec(base);
    return base;
}

void
validateMissionSpec(const MissionSpec &spec)
{
    const char *why = bridge::faultConfigError(spec.faults);
    const std::vector<int> &zoo = dnn::resnetZoo();
    if (std::find(zoo.begin(), zoo.end(), spec.modelDepth) == zoo.end())
        why = "depth is not in the ResNet zoo (6, 11, 14, 18, 34)";
    else if (!std::isfinite(spec.velocity) || spec.velocity < 0.0)
        why = "velocity must be finite and non-negative";
    else if (!std::isfinite(spec.initialYawDeg))
        why = "yaw must be finite";
    else if (!(spec.maxSimSeconds > 0.0 && spec.maxSimSeconds <= 3600.0))
        why = "sim-seconds must be in (0, 3600]";
    else if (spec.syncGranularity == 0)
        why = "sync-granularity must be positive";
    if (why)
        throw std::invalid_argument(why);
}

bool
consumeMissionSpecFlag(MissionSpec &spec, int argc, char **argv, int &i)
{
    std::string_view arg = argv[i];
    if (!arg.starts_with("--") || !findField(arg.substr(2)))
        return false;
    if (i + 1 >= argc)
        throw std::invalid_argument(std::string(arg) + " requires a value");
    setField(spec, arg.substr(2), argv[++i]);
    return true;
}

std::string
missionSpecUsage()
{
    MissionSpec d;
    std::string out;
    for (const SpecField &f : kSpecFields)
        out += "  --" + std::string(f.key) + " " + f.values +
               " (default " + formatField(f.ref(d)) + ")\n";
    return out;
}

MissionResult
runMission(const MissionSpec &spec)
{
    CoSimulation sim(spec.toConfig());
    return sim.run();
}

namespace {

void
emitTrajectoryCsv(CsvWriter &csv,
                  const std::vector<TrajectorySample> &trajectory)
{
    for (const TrajectorySample &s : trajectory) {
        csv.row(s.time, s.position.x, s.position.y, s.position.z, s.yaw,
                s.speed, s.lateralOffset, s.collisions, s.cmdForward,
                s.cmdLateral, s.cmdYawRate);
    }
}

const std::vector<std::string> &
trajectoryHeader()
{
    static const std::vector<std::string> header{
        "t", "x", "y", "z", "yaw", "speed", "offset",
        "collisions", "cmd_fwd", "cmd_lat", "cmd_yaw"};
    return header;
}

} // namespace

std::string_view
trajectoryCsvHeader()
{
    static const std::string line = [] {
        std::string h;
        for (const std::string &col : trajectoryHeader()) {
            if (!h.empty())
                h += ',';
            h += col;
        }
        h += '\n';
        return h;
    }();
    return line;
}

char *
renderTrajectoryCsvRow(char *out, const TrajectorySample &s,
                       double *printed)
{
    // formatCsvCell writes printf's %.6g characters, which are also
    // CsvWriter's ostream cells, and no numeric cell needs quoting, so
    // the row is byte-identical to writeTrajectoryCsv's; the golden
    // hashes are defined by these bytes.
    char *p = out;
    size_t i = 0;
    auto cell = [&](double v) {
        p = formatCsvCell(p, v, printed ? printed + i++ : nullptr);
        *p++ = ',';
    };
    cell(s.time);
    cell(s.position.x);
    cell(s.position.y);
    cell(s.position.z);
    cell(s.yaw);
    cell(s.speed);
    cell(s.lateralOffset);
    p = std::to_chars(p, out + kTrajectoryCsvRowMaxChars, s.collisions)
            .ptr;
    *p++ = ',';
    cell(s.cmdForward);
    cell(s.cmdLateral);
    cell(s.cmdYawRate);
    p[-1] = '\n';
    return p;
}

void
writeTrajectoryCsv(const std::string &path, const MissionResult &r)
{
    // CsvWriter's ostream cells, not renderTrajectoryCsvRow: the file
    // form stays an independent rendering of the same bytes, which
    // test_golden compares with trajectoryCsvString.
    CsvWriter csv(path, trajectoryHeader());
    emitTrajectoryCsv(csv, r.trajectory);
}

std::string
trajectoryCsvString(const MissionResult &r)
{
    return trajectoryCsvString(r.trajectory);
}

std::string
trajectoryCsvString(const std::vector<TrajectorySample> &trajectory)
{
    std::string out;
    out.reserve(trajectoryCsvHeader().size() + trajectory.size() * 96);
    out += trajectoryCsvHeader();
    char row[kTrajectoryCsvRowMaxChars];
    for (const TrajectorySample &s : trajectory)
        out.append(row, size_t(renderTrajectoryCsvRow(row, s) - row));
    return out;
}

double
MpcMissionResult::avgLatencySeconds(double clock_hz) const
{
    if (log.empty())
        return 0.0;
    double sum = 0.0;
    for (const runtime::MpcRecord &rec : log)
        sum += double(rec.requestToCommand());
    return sum / double(log.size()) / clock_hz;
}

MpcMissionResult
runMpcMission(const MissionSpec &spec, const runtime::MpcConfig &mpc)
{
    CosimConfig cfg = spec.toConfig();

    env::EnvSim env(cfg.env);
    auto [sync_end, bridge_end] = bridge::makeInProcPair();
    bridge::RoseBridge rose_bridge(*bridge_end, cfg.bridgeCfg);
    bridge::TargetDriver driver(rose_bridge);

    runtime::MpcConfig mcfg = mpc;
    mcfg.forwardVelocity = spec.velocity;
    mcfg.estimator = cfg.app.estimator;
    runtime::MpcApp app(driver, cfg.soc, mcfg);
    soc::SocSim soc_sim(rose_bridge, app, cfg.soc);
    sync::Synchronizer synchronizer(env, *sync_end, cfg.sync);
    synchronizer.configure();
    rose_bridge.hostService();

    MpcMissionResult r;
    double speed_sum = 0.0;
    uint64_t speed_n = 0;
    while (env.simTime() < cfg.maxSimSeconds) {
        synchronizer.beginPeriod();
        soc_sim.runPeriod();
        synchronizer.endPeriod();
        flight::VehicleState k = env.kinematics();
        speed_sum += std::hypot(k.velocity.x, k.velocity.y);
        ++speed_n;
        if (env.missionComplete()) {
            r.completed = true;
            break;
        }
    }
    r.missionTime = env.simTime();
    r.collisions = env.collisionInfo().count;
    r.avgSpeed = speed_n ? speed_sum / double(speed_n) : 0.0;
    r.log = app.records();
    r.socStats = soc_sim.stats();
    return r;
}

std::string
missionTimeString(const MissionResult &r)
{
    if (!r.completed())
        return "DNF";
    std::ostringstream os;
    os.precision(2);
    os << std::fixed << r.missionTime << "s";
    return os.str();
}

} // namespace rose::core
