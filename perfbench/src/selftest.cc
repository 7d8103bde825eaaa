/**
 * @file
 * Self-tests of the benchmark's own machinery: the tail-percentile
 * rule, pass-through identity of the Transport and Workload
 * decorators, and the exact self-time partition of a traced mission.
 * run.py runs this before every measurement; exit 0 means all pass.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bridge/packet.hh"
#include "bridge/transport.hh"
#include "core/experiment.hh"
#include "layers.hh"
#include "stats.hh"
#include "util/hash.hh"

using namespace rose;
using namespace rosebench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(double(101 - i));
    check(percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
    check(percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
    check(percentile(v, 100.0) == 100.0, "p100 is the max");
    check(percentile({}, 50.0) == 0.0, "empty sample reads 0");

    // The highest percentile with at least ten samples beyond it.
    check(tailPercentile(1000, 99.0) == 99.0, "n=1000 supports p99");
    check(tailPercentile(999, 99.0) == 95.0, "n=999 falls back to p95");
    check(tailPercentile(100000, 99.0) == 99.0, "the cap holds");
    check(tailPercentile(10000, 99.9) == 99.9, "n=10000 supports p99.9");
    check(tailPercentile(200, 99.0) == 95.0, "n=200 supports p95");
    check(tailPercentile(199, 99.0) == 90.0, "n=199 falls back to p90");
    check(tailPercentile(100, 90.0) == 90.0, "n=100 supports p90");
    check(tailPercentile(99, 90.0) == 75.0, "n=99 falls back to p75");
    check(tailPercentile(5, 99.0) == 50.0, "tiny samples report p50");
}

void
testTransportPassThrough()
{
    Probe probe;
    auto [a, b] = bridge::makeInProcPair();
    auto [ra, rb] = bridge::makeInProcPair();
    TimedTransport ta(std::move(a), probe, TimedTransport::Side::Sync);
    TimedTransport tb(std::move(b), probe, TimedTransport::Side::Soc);

    std::vector<bridge::Packet> sent = {
        bridge::encodeSyncGrant(1000), bridge::encodeImageReq(),
        bridge::encodeVelocityCmd({1.0, -0.5, 0.25}),
        bridge::encodeSyncDone(1000)};
    for (const bridge::Packet &p : sent) {
        tb.send(p);
        rb->send(p);
    }
    for (const bridge::Packet &p : sent) {
        bridge::Packet got, ref;
        check(ta.recv(got), "decorated end delivers every packet");
        check(ra->recv(ref), "plain end delivers every packet");
        check(got.type == p.type && got.payload == p.payload &&
                  ref.payload == got.payload,
              "decorated packets are byte-identical");
    }
    bridge::Packet none;
    check(!ta.recv(none), "no phantom packets");
    check(tb.bytesSent() == rb->bytesSent(),
          "byte accounting is the wrapped endpoint's");
    check(ta.bytesReceived() == ra->bytesReceived(),
          "receive accounting is the wrapped endpoint's");
    check(tb.packets() == sent.size(), "sent packets are counted");
    check(probe.t.serviceImage >= 0 && probe.t.serviceCmd >= 0,
          "service times are non-negative");
}

core::MissionSpec
shortGolden()
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = "A";
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = 1;
    spec.maxSimSeconds = 2.0;
    return spec;
}

void
testTracedLoopIdentity(core::TransportKind transport, uint64_t sync)
{
    core::MissionSpec spec = shortGolden();
    spec.syncGranularity = sync;
    core::CosimConfig cfg = spec.toConfig();
    cfg.transport = transport;

    core::MissionResult plain = core::CoSimulation(cfg).run();
    SpanLog spans;
    TracedMission traced = runTracedMission(cfg, &spans, 1);
    const std::string what =
        std::string(transport == core::TransportKind::Tcp ? "tcp" : "inproc");
    check(trajectoryHash(traced.trajectory) ==
              fnv1a(core::trajectoryCsvString(plain)),
          what + ": decorated loop reproduces the trajectory");

    const LayerTimes &t = traced.times;
    check(t.envStep() >= 0 && t.engine() >= 0 && t.appSelf() >= 0 &&
              t.grant() >= 0 && t.loopOther() >= 0,
          what + ": every self time is non-negative");
    int64_t sum = t.build + t.grant() + t.transportSync + t.engine() +
                  t.appSelf() + t.transportSoc + t.serviceImage +
                  t.serviceCmd + t.serviceOther + t.envStep() +
                  t.loopOther();
    check(sum == t.total, what + ": self times partition the total");
    check(t.periods == plain.socStats.periods,
          what + ": one period per SoC period");
    check(t.inferences == plain.inferences,
          what + ": inference count matches");
    check(!spans.spans().empty(), what + ": spans were recorded");
}

} // namespace

int
main()
{
    testPercentiles();
    testTransportPassThrough();
    testTracedLoopIdentity(core::TransportKind::InProcess, 10'000'000);
    testTracedLoopIdentity(core::TransportKind::Tcp, 1'000'000);
    if (failures == 0)
        std::fprintf(stderr, "selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
