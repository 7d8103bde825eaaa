#include "fault_inject.hh"

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::bridge {

const char *
faultConfigError(const FaultConfig &cfg)
{
    auto in01 = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (!in01(cfg.dropProb) || !in01(cfg.corruptProb) ||
        !in01(cfg.reorderProb) || !in01(cfg.delayProb))
        return "fault probabilities must be in [0, 1]";
    if (cfg.dropProb + cfg.corruptProb + cfg.reorderProb + cfg.delayProb >
        1.0 + 1e-12)
        return "fault probabilities must sum to at most 1";
    if (cfg.delayOpsMin > cfg.delayOpsMax)
        return "fault delay-min must not exceed delay-max";
    return nullptr;
}

FaultInjectTransport::FaultInjectTransport(
    std::unique_ptr<Transport> inner, const FaultConfig &cfg)
    : owned_(std::move(inner)), inner_(owned_.get()), cfg_(cfg),
      rng_(cfg.seed)
{
    rose_assert(inner_ != nullptr, "null inner transport");
    rose_assert(!faultConfigError(cfg_), faultConfigError(cfg_));
}

FaultInjectTransport::FaultInjectTransport(Transport &inner,
                                           const FaultConfig &cfg)
    : inner_(&inner), cfg_(cfg), rng_(cfg.seed)
{
    rose_assert(!faultConfigError(cfg_), faultConfigError(cfg_));
}

FaultInjectTransport::~FaultInjectTransport()
{
    // Best-effort flush of held packets so teardown does not silently
    // swallow traffic the fault model only meant to postpone.
    try {
        for (Held &h : delayedTx_)
            inner_->send(h.pkt);
        if (reorderTx_)
            inner_->send(*reorderTx_);
    } catch (const TransportError &) {
        // Peer already gone; nothing left to preserve.
    }
}

FaultInjectTransport::Verdict
FaultInjectTransport::classify(const Packet &p)
{
    if (cfg_.protectSyncPackets && !isDataPacket(p.type))
        return Verdict::Deliver;
    double u = rng_.uniform();
    if (u < cfg_.dropProb)
        return Verdict::Drop;
    u -= cfg_.dropProb;
    if (u < cfg_.corruptProb)
        return Verdict::Corrupt;
    u -= cfg_.corruptProb;
    if (u < cfg_.reorderProb)
        return Verdict::Reorder;
    u -= cfg_.reorderProb;
    if (u < cfg_.delayProb)
        return Verdict::Delay;
    return Verdict::Deliver;
}

void
FaultInjectTransport::corrupt(Packet &p)
{
    if (p.payload.empty())
        return;
    size_t byte = size_t(rng_.uniformInt(p.payload.size()));
    p.payload[byte] ^= uint8_t(1u << rng_.uniformInt(8));
}

uint64_t
FaultInjectTransport::delayDraw()
{
    uint64_t span = cfg_.delayOpsMax - cfg_.delayOpsMin + 1;
    return cfg_.delayOpsMin + rng_.uniformInt(span);
}

void
FaultInjectTransport::flushDelayedTx()
{
    while (!delayedTx_.empty() && delayedTx_.front().dueOp <= op_) {
        inner_->send(delayedTx_.front().pkt);
        ++stats_.sent;
        delayedTx_.pop_front();
    }
}

void
FaultInjectTransport::send(const Packet &p)
{
    ++op_;
    flushDelayedTx();

    bool forwarded = false;
    switch (classify(p)) {
      case Verdict::Drop:
        ++stats_.dropped;
        break;
      case Verdict::Corrupt: {
        Packet c = p;
        corrupt(c);
        ++stats_.corrupted;
        inner_->send(c);
        ++stats_.sent;
        forwarded = true;
        break;
      }
      case Verdict::Delay:
        ++stats_.delayed;
        delayedTx_.push_back({p, op_ + delayDraw()});
        break;
      case Verdict::Reorder:
        if (!reorderTx_) {
            ++stats_.reordered;
            reorderTx_ = p;
            return; // held until the next packet passes it
        }
        [[fallthrough]]; // slot busy: deliver normally
      case Verdict::Deliver:
        inner_->send(p);
        ++stats_.sent;
        forwarded = true;
        break;
    }

    // A held reorder packet goes out right after the packet that
    // overtook it: an adjacent swap on the wire.
    if (forwarded && reorderTx_) {
        inner_->send(*reorderTx_);
        ++stats_.sent;
        reorderTx_.reset();
    }
}

bool
FaultInjectTransport::recv(Packet &out)
{
    ++op_;
    flushDelayedTx();

    if (!delayedRx_.empty() && delayedRx_.front().dueOp <= op_) {
        out = std::move(delayedRx_.front().pkt);
        delayedRx_.pop_front();
        ++stats_.received;
        return true;
    }

    Packet p;
    while (inner_->recv(p)) {
        switch (classify(p)) {
          case Verdict::Drop:
            ++stats_.dropped;
            continue;
          case Verdict::Corrupt:
            corrupt(p);
            ++stats_.corrupted;
            break;
          case Verdict::Delay:
            ++stats_.delayed;
            delayedRx_.push_back({std::move(p), op_ + delayDraw()});
            continue;
          case Verdict::Reorder:
            if (!reorderRx_) {
                ++stats_.reordered;
                reorderRx_ = std::move(p);
                continue; // released after the next delivered packet
            }
            break; // slot busy: deliver normally
          case Verdict::Deliver:
            break;
        }
        out = std::move(p);
        if (reorderRx_) {
            // Park the overtaken packet at the front of the delay queue
            // so the very next recv() returns it (adjacent swap).
            delayedRx_.push_front({std::move(*reorderRx_), op_});
            reorderRx_.reset();
        }
        ++stats_.received;
        return true;
    }

    // Inner stream exhausted: release anything still held so a drained
    // lockstep boundary observes every surviving packet.
    if (reorderRx_) {
        out = std::move(*reorderRx_);
        reorderRx_.reset();
        ++stats_.received;
        return true;
    }
    if (!delayedRx_.empty() && delayedRx_.front().dueOp <= op_) {
        out = std::move(delayedRx_.front().pkt);
        delayedRx_.pop_front();
        ++stats_.received;
        return true;
    }
    return false;
}

void
FaultInjectTransport::saveState(StateWriter &w) const
{
    w.u64(stats_.sent);
    w.u64(stats_.received);
    w.u64(stats_.dropped);
    w.u64(stats_.corrupted);
    w.u64(stats_.reordered);
    w.u64(stats_.delayed);
    rng_.saveState(w);
    w.u64(op_);
    auto saveHeld = [&w](const std::deque<Held> &q) {
        w.u32(uint32_t(q.size()));
        for (const Held &h : q) {
            savePacket(w, h.pkt);
            w.u64(h.dueOp);
        }
    };
    saveHeld(delayedTx_);
    saveHeld(delayedRx_);
    auto saveOpt = [&w](const std::optional<Packet> &o) {
        w.boolean(o.has_value());
        if (o)
            savePacket(w, *o);
    };
    saveOpt(reorderTx_);
    saveOpt(reorderRx_);
}

void
FaultInjectTransport::restoreState(StateReader &r)
{
    stats_.sent = r.u64();
    stats_.received = r.u64();
    stats_.dropped = r.u64();
    stats_.corrupted = r.u64();
    stats_.reordered = r.u64();
    stats_.delayed = r.u64();
    rng_.restoreState(r);
    op_ = r.u64();
    auto loadHeld = [&r](std::deque<Held> &q) {
        q.clear();
        uint32_t n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            Held h;
            h.pkt = loadPacket(r);
            h.dueOp = r.u64();
            q.push_back(std::move(h));
        }
    };
    loadHeld(delayedTx_);
    loadHeld(delayedRx_);
    auto loadOpt = [&r](std::optional<Packet> &o) {
        o.reset();
        if (r.boolean())
            o = loadPacket(r);
    };
    loadOpt(reorderTx_);
    loadOpt(reorderRx_);
}

} // namespace rose::bridge
