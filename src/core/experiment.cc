#include "experiment.hh"

#include <charconv>
#include <cmath>
#include <sstream>

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
