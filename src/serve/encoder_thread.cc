#include "encoder_thread.hh"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstring>

namespace rose::serve {

EncoderThread::EncoderThread() : thread_([this] { loop(); }) {}

EncoderThread::~EncoderThread()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
EncoderThread::begin(size_t samples)
{
    quiesce(false);
    reserve_ = std::min(samples, kMaxReservedSamples);
    const int here = sched_getcpu();
    if (here < 0 || here == avoidedCpu_)
        return;
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0 &&
        CPU_ISSET(here, &cpus) && CPU_COUNT(&cpus) > 1) {
        CPU_CLR(here, &cpus);
        if (pthread_setaffinity_np(thread_.native_handle(), sizeof(cpus),
                                   &cpus) == 0)
            avoidedCpu_ = here;
    }
}

void
EncoderThread::post(const std::vector<core::TrajectoryChunk> &chunks)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        spent_.clear();
        posted_.push_back(chunks);
    }
    cv_.notify_all();
}

void
EncoderThread::loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return stop_ || !posted_.empty(); });
        if (stop_)
            return;
        std::vector<core::TrajectoryChunk> chunks =
            std::move(posted_.front());
        posted_.pop_front();
        busy_ = true;
        lk.unlock();
        absorb(chunks);
        lk.lock();
        spent_.push_back(std::move(chunks));
        busy_ = false;
        cv_.notify_all();
    }
}

void
EncoderThread::absorb(const std::vector<core::TrajectoryChunk> &chunks)
{
    // Reserved here, the records come from this thread's malloc arena,
    // where the last mission's records went back once released, and
    // not from the worker's, on top of its mission's peak.
    if (reserve_) {
        enc_.reserve(reserve_);
        reserve_ = 0;
    }
    size_t n = 0;
    while (n < encoded_.size() && n < chunks.size() &&
           encoded_[n].chunk == chunks[n])
        ++n;
    keep(n);
    for (size_t i = n; i < chunks.size(); ++i) {
        const std::vector<core::TrajectorySample> &c = *chunks[i];
        try {
            enc_.append(c.data(), c.size());
            encoded_.push_back({chunks[i], enc_.mark()});
        } catch (const std::exception &) {
            // Unencodable, or out of memory: leave the chunk to
            // finish(), which throws on the worker as marshalResult
            // would.
            enc_.rewind(encoded_.empty() ? TrajectoryEncoder().mark()
                                         : encoded_.back().end);
            return;
        }
    }
}

void
EncoderThread::keep(size_t n)
{
    if (n == encoded_.size())
        return;
    enc_.rewind(n ? encoded_[n - 1].end : TrajectoryEncoder().mark());
    encoded_.resize(n);
}

void
EncoderThread::quiesce(bool drop_posted)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (drop_posted)
        posted_.clear();
    cv_.wait(lk, [this] { return !busy_ && posted_.empty(); });
    spent_.clear();
}

void
EncoderThread::clear()
{
    encoded_.clear();
    enc_ = TrajectoryEncoder();
    reserve_ = 0;
}

ServedResult
EncoderThread::finish(const core::MissionResult &r)
{
    quiesce(false);
    // The prefix rule: keep encoded chunks while the final trajectory
    // holds their samples, bit for bit, at the same position. A
    // crashed mission's trajectory is whatever the last attempt left,
    // so it is encoded afresh.
    const std::vector<core::TrajectorySample> &t = r.trajectory;
    size_t n = 0;
    size_t at = 0;
    if (r.status != core::MissionStatus::Crashed) {
        for (; n < encoded_.size(); ++n) {
            const std::vector<core::TrajectorySample> &c =
                *encoded_[n].chunk;
            if (c.size() > t.size() - at ||
                std::memcmp(c.data(), t.data() + at,
                            c.size() * sizeof(core::TrajectorySample)) !=
                    0)
                break;
            at += c.size();
        }
    }
    keep(n);
    reused_ = at;
    try {
        enc_.reserve(t.size());
        enc_.append(t.data() + at, t.size() - at);
        ServedResult s = marshalResult(r, std::move(enc_));
        // A mission that ended early leaves slack in the reservation;
        // a retained result should hold only its records.
        std::vector<uint8_t> &records = s.trajectoryRecords;
        if (records.capacity() - records.size() > records.size() / 8)
            records.shrink_to_fit();
        clear();
        return s;
    } catch (...) {
        clear();
        throw;
    }
}

void
EncoderThread::discard()
{
    quiesce(true);
    clear();
}

} // namespace rose::serve
