/**
 * @file
 * A rosed worker's encoder thread: it turns a supervised mission's
 * sealed trajectory chunks into result records while the mission is
 * still running, so that only the samples after the last snapshot are
 * encoded once the mission ends (DESIGN.md §5f).
 *
 * The worker posts each snapshot's chunk list (the supervisor's
 * snapshotObserver) and, at mission end, calls finish() with the
 * result. finish() gives exactly marshalResult() of that result: it
 * keeps only the encoded prefix whose chunks the final trajectory
 * starts with, bit for bit, and encodes the rest on the caller's
 * thread.
 */

#ifndef ROSE_SERVE_ENCODER_THREAD_HH
#define ROSE_SERVE_ENCODER_THREAD_HH

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/checkpoint.hh"
#include "serve/proto.hh"

namespace rose::serve {

class EncoderThread
{
  public:
    /** Bound on begin()'s reservation: 4 Mi samples, 176 MiB of
     *  records. */
    static constexpr size_t kMaxReservedSamples = size_t(1) << 22;

    EncoderThread();
    ~EncoderThread();

    EncoderThread(const EncoderThread &) = delete;
    EncoderThread &operator=(const EncoderThread &) = delete;

    /**
     * Prepare for a supervised mission, on the worker's thread and
     * between missions. The thread sizes the records for @p samples
     * (at most kMaxReservedSamples) when it takes the first list, so
     * that they never grow by doubling. Keeps the thread off the
     * worker's current CPU, so that it runs beside the mission, not
     * behind it: on a host whose cpuset disables load balancing, a
     * woken thread stays on the CPU it was woken on, which is the
     * worker's.
     */
    void begin(size_t samples);

    /**
     * Hand over a snapshot's chunk list and return at once. The thread
     * takes the lists in order; for each it keeps the chunks it already
     * encoded that lead the list (by pointer), drops the rest, and
     * encodes the chunks after them.
     */
    void post(const std::vector<core::TrajectoryChunk> &chunks);

    /**
     * Marshal a finished mission on the calling thread: equal to
     * marshalResult(r). Waits for the thread to take every posted
     * list, keeps the encoded chunks that r.trajectory starts with
     * (compared sample by sample; none for a Crashed result), encodes
     * the remaining samples, and leaves the encoder empty for the next
     * mission.
     * @throws ProtocolError as marshalResult does.
     */
    ServedResult finish(const core::MissionResult &r);

    /** Drop everything encoded or posted: a mission that ends without
     *  a result to finish(). */
    void discard();

    /** Samples whose records the last finish() took from the
     *  thread. */
    size_t reusedSamples() const { return reused_; }

  private:
    struct Encoded
    {
        core::TrajectoryChunk chunk;
        TrajectoryEncoder::Mark end; ///< encoder state after the chunk
    };

    void loop();
    /** Encode @p chunks after the encoded prefix they share. */
    void absorb(const std::vector<core::TrajectoryChunk> &chunks);
    /** Keep the first @p n encoded chunks. */
    void keep(size_t n);
    /** Wait until the thread has taken every posted list and is
     *  idle; drop the lists it has not taken when @p drop_posted. */
    void quiesce(bool drop_posted);
    void clear();

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::vector<core::TrajectoryChunk>> posted_;
    /** Lists the thread is done with, freed by the worker: freed on
     *  the thread, they would pile up in its malloc cache, one list
     *  length per size class (≈0.23 MB per thread on serve_long). */
    std::vector<std::vector<core::TrajectoryChunk>> spent_;
    bool busy_ = false;
    bool stop_ = false;

    // The thread's while busy_, the worker's otherwise.
    TrajectoryEncoder enc_;
    std::vector<Encoded> encoded_;
    size_t reserve_ = 0; ///< samples to size the records for

    size_t reused_ = 0;
    int avoidedCpu_ = -1; ///< the CPU begin() last kept the thread off
    std::thread thread_;
};

} // namespace rose::serve

#endif // ROSE_SERVE_ENCODER_THREAD_HH
