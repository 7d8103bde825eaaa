#include "server.hh"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/batch.hh"
#include "serve/encoder_thread.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace rose::serve {

namespace {

void
setNonBlockingOrThrow(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw bridge::TransportError(
            std::string("fcntl O_NONBLOCK failed: ") +
            std::strerror(errno));
}

double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

/** Bytes a retained terminal job pins in memory (payload only). */
static uint64_t
jobRetainedBytes(const ServedResult *r)
{
    if (!r)
        return 0;
    return uint64_t(r->trajectoryRecords.size()) +
           uint64_t(r->failureReason.size());
}

/** Scalar-only copy of a result (no record payload). */
static ServedResult
scalarResult(const ServedResult &r)
{
    ServedResult s;
    s.status = r.status;
    s.failureReason = r.failureReason;
    s.missionTime = r.missionTime;
    s.collisions = r.collisions;
    s.avgSpeed = r.avgSpeed;
    s.maxSpeed = r.maxSpeed;
    s.distanceTravelled = r.distanceTravelled;
    s.inferences = r.inferences;
    s.avgInferenceLatency = r.avgInferenceLatency;
    s.energyJoules = r.energyJoules;
    s.avgPowerWatts = r.avgPowerWatts;
    s.simulatedCycles = r.simulatedCycles;
    s.trajectorySamples = r.trajectorySamples;
    s.degradedIntervals = r.degradedIntervals;
    s.trajectoryHash = r.trajectoryHash;
    s.queueWaitMs = r.queueWaitMs;
    s.serviceMs = r.serviceMs;
    return s;
}

MissionServer::MissionServer(const ServerConfig &cfg)
    : cfg_(cfg), listener_(cfg.port)
{
    if (cfg_.workers < 1)
        cfg_.workers = 1;
    if (cfg_.maxQueueDepth < 1)
        cfg_.maxQueueDepth = 1;
    if (cfg_.maxRetainedResults < 1)
        cfg_.maxRetainedResults = 1;
    // Whole records per chunk: every chunk boundary is then a valid
    // (record-aligned) resume offset.
    cfg_.resultChunkBytes =
        std::clamp(cfg_.resultChunkBytes, kTrajectoryBinaryRecordBytes,
                   kMaxResultChunkBytes) /
        kTrajectoryBinaryRecordBytes * kTrajectoryBinaryRecordBytes;
    if (cfg_.streamBacklogBytes < 1)
        cfg_.streamBacklogBytes = 1;
    counters_.workers = uint32_t(cfg_.workers);
    counters_.queueCapacity = uint32_t(cfg_.maxQueueDepth);

    if (cfg_.journalDir.empty())
        return;

    // Crash recovery. Open (replaying + compacting) the journal,
    // then rebuild the job table: terminal jobs come back retained
    // and fetchable, unfinished ones re-enter the queue flagged for
    // a warm restore from their persisted checkpoint. Runs before
    // any thread exists, so mu_ conventions are trivially met.
    journal_ = std::make_unique<JobJournal>(
        cfg_.journalDir, journalFingerprint(cfg_.supervise),
        cfg_.journalFsync);
    JournalReplay rep = journal_->takeReplay();
    // High-water mark across every journaled submit (released ones
    // included): a restarted daemon must never reuse a job id.
    nextJobId_ = std::max(nextJobId_, rep.maxJobId + 1);
    if (rep.recoveredFromCorruption)
        rose_warn("rosed journal: recovered past a torn/corrupt ",
                      "tail (", rep.truncatedBytes,
                      " bytes discarded)");
    for (RecoveredJob &rj : rep.jobs) {
        uint64_t id = rj.jobId;
        Job job;
        job.id = id;
        job.spec = std::move(rj.spec);
        job.idempotencyKey = rj.idempotencyKey;
        job.clientId = 0; // the submitting session died with us
        job.enqueued = Clock::now();
        if (!rj.idempotencyKey.empty())
            idemToJob_[rj.idempotencyKey] = id;
        nextJobId_ = std::max(nextJobId_, id + 1);
        counters_.journalReplayedJobs++;
        if (rj.terminal) {
            job.state = rj.state;
            job.queueWaitMs = rj.result.queueWaitMs;
            job.serviceMs = rj.result.serviceMs;
            if (rj.state != JobState::Cancelled)
                job.result = std::make_shared<const ServedResult>(
                    std::move(rj.result));
            jobs_.emplace(id, std::move(job));
            markTerminalLocked(id);
            journal_->removeCheckpoint(id);
        } else {
            job.state = JobState::Queued;
            job.recovered = true;
            jobs_.emplace(id, std::move(job));
            queue_.push_back(id);
        }
    }
    if (counters_.journalReplayedJobs > 0)
        rose_inform("rosed journal: replayed ",
                    counters_.journalReplayedJobs, " job(s), ",
                    queue_.size(), " requeued");
}

MissionServer::~MissionServer()
{
    stop(false);
}

void
MissionServer::start()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        rose_assert(!started_, "MissionServer started twice");
        started_ = true;
    }
    ioThread_ = std::thread([this] { ioLoop(); });

    // The worker pool is the batch runner's pool primitive: a
    // parallel indexed map over worker slots, each slot's body
    // looping on the shared job queue. Launched from a detached-join
    // helper thread because parallelIndexed() itself blocks until
    // every worker exits (which is exactly what waitForShutdown
    // wants to join on).
    poolLauncher_ = std::thread([this] {
        core::parallelIndexed<int>(size_t(cfg_.workers), cfg_.workers,
                                   [this](size_t i) {
                                       workerLoop(i);
                                       return 0;
                                   });
    });
}

void
MissionServer::requestShutdown(bool drain)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_ || shuttingDown_)
        return;
    shuttingDown_ = true;
    drainOnShutdown_ = drain;
    if (!drain) {
        // Immediate shutdown sheds the whole queue; running missions
        // still finish (missions are never preempted mid-flight).
        for (uint64_t id : queue_) {
            auto it = jobs_.find(id);
            if (it == jobs_.end())
                continue;
            it->second.state = JobState::Cancelled;
            counters_.cancelled++;
            auto fl = inFlightByClient_.find(it->second.clientId);
            if (fl != inFlightByClient_.end() && fl->second > 0)
                fl->second--;
            journalCancelLocked(id);
            markTerminalLocked(id);
        }
        queue_.clear();
    }
    queueCv_.notify_all();
}

void
MissionServer::waitForShutdown()
{
    if (ioThread_.joinable())
        ioThread_.join();
    if (poolLauncher_.joinable())
        poolLauncher_.join();
}

void
MissionServer::stop(bool drain)
{
    requestShutdown(drain);
    waitForShutdown();
}

bool
MissionServer::running() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return started_ && !shutdownComplete_;
}

ServerStatsSnapshot
MissionServer::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return statsLocked();
}

ServerStatsSnapshot
MissionServer::statsLocked() const
{
    ServerStatsSnapshot s = counters_;
    s.queued = uint32_t(queue_.size());
    s.running = runningJobs_;
    s.connectionsOpen = openConnections_;
    s.retainedResultBytes = retainedBytes_;
    s.activeStreams = activeStreams_;
    return s;
}

void
MissionServer::pauseWorkers()
{
    std::lock_guard<std::mutex> lk(mu_);
    workersPaused_ = true;
}

void
MissionServer::resumeWorkers()
{
    std::lock_guard<std::mutex> lk(mu_);
    workersPaused_ = false;
    queueCv_.notify_all();
}

void
MissionServer::dropConnections()
{
    std::lock_guard<std::mutex> lk(mu_);
    kickConnections_ = true;
}

// ------------------------------------------------------------ workers

void
MissionServer::workerLoop(size_t)
{
    // This worker's encoder thread, joined when the worker exits. It
    // encodes each supervised snapshot's sealed chunks while the
    // mission runs on; finish() encodes the rest here.
    EncoderThread encoder;
    for (;;) {
        core::MissionSpec spec;
        uint64_t job_id = 0;
        bool recovered = false;
        Clock::time_point started;
        double queue_wait_ms = 0.0;
        {
            std::unique_lock<std::mutex> lk(mu_);
            // Shutdown overrides pause so a drain can never deadlock
            // behind a paused pool.
            queueCv_.wait(lk, [this] {
                bool runnable = !queue_.empty() &&
                                (!workersPaused_ || shuttingDown_);
                bool stop = shuttingDown_ &&
                            (!drainOnShutdown_ || queue_.empty());
                return runnable || stop;
            });
            if (queue_.empty())
                return; // shutdown (drained or immediate)
            job_id = queue_.front();
            queue_.pop_front();
            Job &job = jobs_[job_id];
            job.state = JobState::Running;
            job.started = Clock::now();
            job.queueWaitMs = msBetween(job.enqueued, job.started);
            spec = job.spec;
            recovered = job.recovered;
            started = job.started;
            queue_wait_ms = job.queueWaitMs;
            runningJobs_++;
        }

        // Execute outside the lock. The supervisor path gives served
        // missions checkpoint/restore + fault retry + degraded-mode
        // recovery; an unperturbed supervised run is bit-identical to
        // runMission(), which is what makes served results hash equal
        // to local ones. Marshalling sits inside the try too, so any
        // throw becomes a Failed job rather than escaping the worker.
        // It gives marshalResult()'s bytes however much of the
        // trajectory the encoder thread already did.
        ServedResult served;
        bool threw = false;
        bool warm_restored = false;
        try {
            core::MissionResult result;
            core::CosimConfig ccfg = spec.toConfig();
            const double max_sim = ccfg.maxSimSeconds;
            // Sync periods the mission runs if it flies to max_sim.
            const double expected_periods =
                max_sim * ccfg.sync.clocks.socClockHz /
                double(std::max<uint64_t>(1, spec.syncGranularity));
            if (cfg_.progressIntervalPeriods > 0) {
                ccfg.progressPeriods = cfg_.progressIntervalPeriods;
                ccfg.progressHook =
                    [this, job_id, max_sim](double sim_t,
                                            uint64_t samples) {
                        std::lock_guard<std::mutex> lk(mu_);
                        ProgressEvent &p = pendingProgress_[job_id];
                        p.jobId = job_id;
                        p.simTimeSeconds = sim_t;
                        p.maxSimSeconds = max_sim;
                        p.samples = samples;
                    };
            }
            if (cfg_.supervise) {
                core::SupervisorConfig sc = cfg_.supervisor;
                // Each checkpoint shares the trajectory's sealed chunks
                // but serializes the rest of the state afresh, so a
                // fixed cadence costs one such serialization per
                // cadence periods; cap the checkpoint count so a
                // fine-grained mission pays for a bounded number.
                if (cfg_.supervisorCheckpointCap > 0 &&
                    sc.checkpointPeriods > 0) {
                    uint64_t floor_cadence =
                        uint64_t(expected_periods /
                                 double(cfg_.supervisorCheckpointCap)) +
                        1;
                    if (sc.checkpointPeriods < floor_cadence)
                        sc.checkpointPeriods = floor_cadence;
                }
                // Journaled jobs persist their checkpoint ring per
                // job; a journal-replayed job warm-restores from the
                // snapshot its previous incarnation left behind
                // (supervisor falls back to a cold start on any
                // problem — resume never fails a mission).
                if (journal_) {
                    sc.checkpointPath =
                        journal_->checkpointPathFor(job_id);
                    if (recovered)
                        sc.resumeFromPath = sc.checkpointPath;
                }
                encoder.begin(
                    size_t(expected_periods /
                           double(std::max<uint64_t>(
                               1, ccfg.samplePeriods))) +
                    2);
                sc.snapshotObserver =
                    [&encoder](
                        const std::vector<core::TrajectoryChunk> &c) {
                        encoder.post(c);
                    };
                core::MissionSupervisor sup(ccfg, sc);
                result = sup.run();
                warm_restored = sup.stats().diskResumes > 0;
            } else {
                core::CoSimulation sim(ccfg);
                result = sim.run();
            }
            served = encoder.finish(result);
        } catch (const std::exception &e) {
            encoder.discard();
            threw = true;
            served.status = uint8_t(core::MissionStatus::Crashed);
            served.failureReason = e.what();
            // No trajectory: both hashes are FNV-1a of zero bytes.
            served.trajectoryHash = served.payloadHash =
                fnv1a(std::string_view{});
        }
        double service_ms = msBetween(started, Clock::now());
        served.queueWaitMs = queue_wait_ms;
        served.serviceMs = service_ms;
        JobState terminal_state =
            threw ? JobState::Failed : JobState::Done;

        // Write-ahead: the terminal record hits the journal before
        // the in-memory transition publishes it, so a crash between
        // the two re-runs the job (duplicated work) rather than
        // acking a result that would evaporate (lost work). Journal
        // trouble is logged, never fatal — the daemon degrades to
        // in-memory serving.
        if (journal_) {
            try {
                journal_->appendTerminal(job_id, terminal_state,
                                         served);
                journal_->removeCheckpoint(job_id);
            } catch (const JournalError &e) {
                rose_warn("rosed journal append failed for job ",
                              job_id, ": ", e.what());
            }
        }

        {
            std::lock_guard<std::mutex> lk(mu_);
            Job &job = jobs_[job_id];
            job.serviceMs = service_ms;
            job.state = terminal_state;
            job.result = std::make_shared<const ServedResult>(
                std::move(served));
            if (threw)
                counters_.failed++;
            else
                counters_.completed++;
            if (warm_restored)
                counters_.warmRestoredJobs++;
            counters_.totalQueueWaitMs += job.queueWaitMs;
            counters_.maxQueueWaitMs =
                std::max(counters_.maxQueueWaitMs, job.queueWaitMs);
            counters_.totalServiceMs += job.serviceMs;
            counters_.maxServiceMs =
                std::max(counters_.maxServiceMs, job.serviceMs);
            runningJobs_--;
            pendingProgress_.erase(job_id);
            if (job.clientId != 0) {
                auto fl = inFlightByClient_.find(job.clientId);
                if (fl != inFlightByClient_.end() && fl->second > 0)
                    fl->second--;
            }
            markTerminalLocked(job_id);
            // A drain may complete with this job: wake idle workers
            // (and let the IO loop observe quiescence on its next
            // poll tick).
            if (shuttingDown_)
                queueCv_.notify_all();
        }
    }
}

// ----------------------------------------------------------------- IO

void
MissionServer::ioLoop()
{
    bool listenerOpen = true;

    for (;;) {
        // Exit once shutdown is requested, the job engine is
        // quiescent (queue drained or shed, nothing running), and no
        // live connection still has buffered replies or an open
        // result stream — the final frames must reach their peers. A
        // peer that refuses to drain cannot wedge the exit: its
        // progress deadline below marks the connection dead.
        {
            bool quiescent;
            {
                std::lock_guard<std::mutex> lk(mu_);
                quiescent = shuttingDown_ && queue_.empty() &&
                            runningJobs_ == 0;
                if (shuttingDown_ && listenerOpen) {
                    // Stop accepting the moment shutdown begins;
                    // existing connections stay serviceable while
                    // draining.
                    listener_.close();
                    listenerOpen = false;
                }
            }
            if (quiescent) {
                bool pending = false;
                for (const auto &c : conns_)
                    if (!c->dead && (c->pendingTx() > 0 || c->stream))
                        pending = true;
                if (!pending)
                    break;
            }
        }

        // Snapshot the connection count the pollfd set covers:
        // acceptPending() below can append to conns_, and those new
        // connections have no pfds entry until the next iteration.
        const size_t polledConns = conns_.size();
        std::vector<pollfd> pfds;
        pfds.reserve(polledConns + 1);
        if (listenerOpen)
            pfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
        for (const auto &c : conns_) {
            short events = POLLIN;
            if (c->pendingTx() > 0)
                events |= POLLOUT;
            pfds.push_back(pollfd{c->fd, events, 0});
        }

        int rc = ::poll(pfds.data(), nfds_t(pfds.size()),
                        cfg_.pollIntervalMs);
        if (rc < 0 && errno != EINTR) {
            rose_warn("rosed IO poll failed: ",
                          std::strerror(errno));
            break;
        }

        size_t idx = 0;
        if (listenerOpen) {
            if (pfds[idx].revents & POLLIN)
                acceptPending();
            idx++;
        }
        for (size_t i = 0; i < polledConns; ++i, ++idx) {
            Connection &conn = *conns_[i];
            if (pfds[idx].revents & POLLOUT)
                flushSend(conn);
            if (pfds[idx].revents &
                (POLLIN | POLLERR | POLLHUP | POLLNVAL))
                serviceConnection(conn);
            // A flushed stream wants refilling even with no new
            // input: generate the next chunks (and any requests
            // deferred behind the stream) now that the backlog has
            // room.
            if (!conn.dead && conn.stream &&
                !drainRequests(conn))
                conn.dead = true;
            if (!conn.dead && conn.pendingTx() > 0 &&
                Clock::now() >= conn.txDeadline) {
                rose_warn("rosed reply stalled on connection ",
                              conn.id, " (", conn.pendingTx(),
                              " bytes unflushed for ",
                              cfg_.sendTimeoutMs,
                              " ms); dropping it");
                conn.dead = true;
            }
        }

        // Push coalesced mission progress to owning connections.
        flushProgress();

        // Chaos hook: sever everything on request, as if the network
        // dropped out from under every client at once.
        {
            bool kick = false;
            {
                std::lock_guard<std::mutex> lk(mu_);
                kick = kickConnections_;
                kickConnections_ = false;
            }
            if (kick)
                for (auto &c : conns_)
                    c->dead = true;
        }

        // Retire dead connections and release their sessions.
        for (size_t i = 0; i < conns_.size();) {
            if (conns_[i]->dead) {
                closeConnection(*conns_[i]);
                conns_.erase(conns_.begin() + std::ptrdiff_t(i));
            } else {
                ++i;
            }
        }
    }

    if (listenerOpen)
        listener_.close();
    for (auto &c : conns_)
        closeConnection(*c);
    conns_.clear();

    std::lock_guard<std::mutex> lk(mu_);
    shutdownComplete_ = true;
}

void
MissionServer::acceptPending()
{
    for (;;) {
        int fd = -1;
        try {
            fd = listener_.acceptFd(0);
        } catch (const bridge::TransportError &e) {
            rose_warn("rosed accept failed: ", e.what());
            return;
        }
        if (fd < 0)
            return;
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        try {
            setNonBlockingOrThrow(fd);
        } catch (const bridge::TransportError &e) {
            rose_warn("rosed connection setup failed: ", e.what());
            ::close(fd);
            continue;
        }
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (cfg_.sendBufferBytes > 0)
            setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                       &cfg_.sendBufferBytes,
                       sizeof(cfg_.sendBufferBytes));
        {
            std::lock_guard<std::mutex> lk(mu_);
            conn->id = nextConnId_++;
            counters_.connectionsAccepted++;
            openConnections_++;
            inFlightByClient_[conn->id] = 0;
        }
        conns_.push_back(std::move(conn));
    }
}

void
MissionServer::serviceConnection(Connection &conn)
{
    uint8_t tmp[65536];
    for (;;) {
        ssize_t n = ::recv(conn.fd, tmp, sizeof(tmp), 0);
        if (n > 0) {
            conn.rx.append(tmp, size_t(n));
            continue;
        }
        if (n == 0) {
            conn.dead = true; // orderly peer close
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        conn.dead = true; // reset or hard error
        break;
    }
    if (!drainRequests(conn))
        conn.dead = true;
}

bool
MissionServer::drainRequests(Connection &conn)
{
    for (;;) {
        // An open result stream defers everything behind it: its
        // frames are generated first (bounded by the backlog cap),
        // and only once it closes are further buffered requests
        // decoded — strict per-connection ordering, per-stream
        // memory.
        if (conn.stream) {
            pumpStream(conn);
            if (conn.dead)
                return false;
            if (conn.stream)
                return true; // backlog full; POLLOUT resumes us
        }
        Message req;
        std::string err;
        FrameStatus st = conn.rx.next(req, &err);
        if (st == FrameStatus::NeedMore)
            return true;
        if (st == FrameStatus::Malformed) {
            std::lock_guard<std::mutex> lk(mu_);
            counters_.malformed++;
            rose_warn("rosed dropping connection ", conn.id,
                          ": ", err);
            return false;
        }
        if (!isRequest(req.type)) {
            std::lock_guard<std::mutex> lk(mu_);
            counters_.malformed++;
            rose_warn("rosed dropping connection ", conn.id,
                          ": unexpected response-type message ",
                          msgTypeName(req.type));
            return false;
        }
        std::optional<Message> reply = handleRequest(conn, req);
        if (reply)
            sendMessage(conn, *reply);
        if (conn.dead)
            return false;
    }
}

void
MissionServer::pumpStream(Connection &conn)
{
    ResultStream &st = *conn.stream;
    const std::vector<uint8_t> &records = st.src->trajectoryRecords;
    const uint64_t total = records.size();
    while (!conn.dead && conn.pendingTx() < cfg_.streamBacklogBytes) {
        if (st.offset >= total) {
            sendMessage(conn, encodeResultEnd(st.end));
            conn.stream.reset();
            std::lock_guard<std::mutex> lk(mu_);
            counters_.streamsCompleted++;
            if (activeStreams_ > 0)
                activeStreams_--;
            return;
        }
        // Slice the records encoded once at mission end
        // (marshalResult); the slice size is a whole number of
        // records, so a resumed stream's bytes line up exactly.
        ResultChunkData c;
        c.jobId = st.end.jobId;
        c.seq = st.seq++;
        size_t n = size_t(std::min<uint64_t>(cfg_.resultChunkBytes,
                                             total - st.offset));
        const uint8_t *base = records.data() + st.offset;
        c.bytes.assign(base, base + n);
        st.offset += n;
        sendMessage(conn, encodeResultChunk(c));
        std::lock_guard<std::mutex> lk(mu_);
        counters_.streamedChunks++;
        counters_.streamedPayloadBytes += c.bytes.size();
    }
}

void
MissionServer::flushProgress()
{
    std::vector<std::pair<uint64_t, ProgressEvent>> events;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (pendingProgress_.empty())
            return;
        events.reserve(pendingProgress_.size());
        for (const auto &[job_id, ev] : pendingProgress_) {
            auto it = jobs_.find(job_id);
            if (it == jobs_.end() || it->second.clientId == 0)
                continue; // orphaned: nobody to push to
            events.emplace_back(it->second.clientId, ev);
        }
        pendingProgress_.clear();
    }
    uint64_t pushed = 0;
    for (const auto &[client_id, ev] : events) {
        for (auto &c : conns_) {
            if (c->id != client_id || c->dead)
                continue;
            // Progress frames may interleave with another job's
            // result stream on this connection (the client
            // dispatches them before its assembler); a job that is
            // streaming is terminal, so its own stream can never
            // see its own Progress.
            sendMessage(*c, encodeProgress(ev));
            pushed++;
            break;
        }
    }
    if (pushed > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        counters_.progressEvents += pushed;
    }
}

std::optional<Message>
MissionServer::handleRequest(Connection &conn, const Message &req)
{
    try {
        switch (req.type) {
          case MsgType::SubmitMission:
            return handleSubmit(conn, req);
          case MsgType::QueryStatus:
            return handleStatus(req);
          case MsgType::FetchResult:
            return handleFetch(conn, req);
          case MsgType::CancelMission:
            return handleCancel(req);
          case MsgType::AckResult:
            return handleAck(req);
          case MsgType::ServerStats:
            return handleStats();
          case MsgType::Shutdown:
            return handleShutdown(req);
          default:
            return encodeErrorReply(
                std::string("unhandled request type ") +
                msgTypeName(req.type));
        }
    } catch (const ProtocolError &e) {
        return encodeErrorReply(std::string("bad request: ") +
                                e.what());
    }
}

Message
MissionServer::handleSubmit(Connection &conn, const Message &req)
{
    SubmitRequest sreq = decodeSubmitRequest(req);
    core::MissionSpec &spec = sreq.spec;

    // Cheap semantic validation up front: a spec that cannot run
    // should cost an admission decision, not a worker slot. Mission
    // *length* is deliberately not validated: a trajectory of any
    // size streams in bounded chunks.
    auto bad = [&](const std::string &why) {
        std::lock_guard<std::mutex> lk(mu_);
        counters_.submitted++;
        return encodeRejected({RejectReason::BadRequest, why});
    };
    if (spec.modelDepth < 1 || spec.modelDepth > 64)
        return bad("modelDepth out of range [1,64]");
    if (!std::isfinite(spec.velocity) || spec.velocity < 0.0)
        return bad("velocity must be finite and non-negative");
    if (!std::isfinite(spec.maxSimSeconds) ||
        spec.maxSimSeconds <= 0.0 || spec.maxSimSeconds > 3600.0)
        return bad("maxSimSeconds out of range (0,3600]");
    if (spec.syncGranularity == 0)
        return bad("syncGranularity must be positive");

    std::lock_guard<std::mutex> lk(mu_);
    counters_.submitted++;

    // Idempotent resubmission: a key we have already admitted (this
    // incarnation or a journal-replayed one) returns the existing
    // job id instead of running the mission twice — this is what
    // makes the client's submit-retry after a reconnect safe.
    if (!sreq.idempotencyKey.empty()) {
        auto ij = idemToJob_.find(sreq.idempotencyKey);
        if (ij != idemToJob_.end() && jobs_.count(ij->second)) {
            counters_.dedupedSubmits++;
            SubmitOkReply ok;
            ok.jobId = ij->second;
            for (size_t i = 0; i < queue_.size(); ++i)
                if (queue_[i] == ok.jobId)
                    ok.queuePosition = uint32_t(i);
            return encodeSubmitOk(ok);
        }
    }

    if (shuttingDown_) {
        counters_.rejectedShutdown++;
        return encodeRejected(
            {RejectReason::ShuttingDown, "daemon is shutting down"});
    }
    if (queue_.size() >= cfg_.maxQueueDepth) {
        counters_.rejectedQueueFull++;
        return encodeRejected(
            {RejectReason::QueueFull,
             detail::concat("queue depth ", cfg_.maxQueueDepth,
                            " reached; resubmit later")});
    }
    uint32_t &inflight = inFlightByClient_[conn.id];
    if (inflight >= cfg_.perClientInFlight) {
        counters_.rejectedClientCap++;
        return encodeRejected(
            {RejectReason::ClientCap,
             detail::concat("per-client in-flight cap ",
                            cfg_.perClientInFlight, " reached")});
    }

    SubmitOkReply ok;
    ok.jobId = nextJobId_++;
    ok.queuePosition = uint32_t(queue_.size());

    // Write-ahead: the submission is journaled before admission
    // takes effect; if the append fails the job is refused outright
    // (admitting it would break the crash-recovery contract).
    if (journal_) {
        try {
            journal_->appendSubmit(ok.jobId, sreq.idempotencyKey,
                                   spec);
        } catch (const JournalError &e) {
            nextJobId_--;
            rose_warn("rosed journal append failed: ", e.what());
            return encodeRejected(
                {RejectReason::BadRequest,
                 std::string("journal append failed: ") + e.what()});
        }
    }

    Job job;
    job.id = ok.jobId;
    job.spec = std::move(spec);
    job.clientId = conn.id;
    job.idempotencyKey = sreq.idempotencyKey;
    job.enqueued = Clock::now();
    if (!sreq.idempotencyKey.empty())
        idemToJob_[sreq.idempotencyKey] = ok.jobId;
    jobs_.emplace(ok.jobId, std::move(job));
    queue_.push_back(ok.jobId);
    inflight++;
    counters_.accepted++;
    queueCv_.notify_one();
    return encodeSubmitOk(ok);
}

Message
MissionServer::handleStatus(const Message &req)
{
    uint64_t id = decodeQueryStatus(req);
    std::lock_guard<std::mutex> lk(mu_);
    StatusInfo s;
    s.jobId = id;
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        s.state = JobState::Unknown;
        return encodeStatusReply(s);
    }
    const Job &job = it->second;
    s.state = job.state;
    if (job.state == JobState::Queued) {
        for (size_t i = 0; i < queue_.size(); ++i) {
            if (queue_[i] == id) {
                s.queuePosition = uint32_t(i);
                break;
            }
        }
        s.queueWaitMs = msBetween(job.enqueued, Clock::now());
    } else {
        s.queueWaitMs = job.queueWaitMs;
        s.serviceMs = job.state == JobState::Running
                          ? msBetween(job.started, Clock::now())
                          : job.serviceMs;
    }
    return encodeStatusReply(s);
}

std::optional<Message>
MissionServer::handleFetch(Connection &conn, const Message &req)
{
    FetchRequest freq = decodeFetchResult(req);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(freq.jobId);
    if (it == jobs_.end()) {
        StatusInfo s;
        s.jobId = freq.jobId;
        s.state = JobState::Unknown;
        return encodeStatusReply(s);
    }
    Job &job = it->second;
    if (job.state == JobState::Done || job.state == JobState::Failed) {
        std::shared_ptr<const ServedResult> src = job.result;
        if (!src) // Cancelled-at-shutdown records carry no payload
            return encodeErrorReply("job has no result payload");
        const uint64_t total = src->trajectoryRecords.size();

        // Resume: the client presents how many record bytes it
        // already holds; the stream restarts its chunk sequence at 0
        // from that offset. ResultEnd.payloadBytes stays the TOTAL
        // payload size so the assembler's final accounting (and the
        // FNV-1a hash check) is identical either way.
        if (freq.resumeOffset > total)
            return encodeErrorReply(detail::concat(
                "resume offset ", freq.resumeOffset,
                " exceeds payload size ", total));
        if (freq.resumeOffset % kTrajectoryBinaryRecordBytes != 0)
            return encodeErrorReply(detail::concat(
                "resume offset must be a multiple of ",
                kTrajectoryBinaryRecordBytes));

        auto stream = std::make_unique<ResultStream>();
        stream->src = src;
        stream->offset = freq.resumeOffset;
        ResultEndData &end = stream->end;
        end.jobId = freq.jobId;
        end.state = job.state;
        end.payloadBytes = total;
        const uint64_t slice = cfg_.resultChunkBytes;
        end.chunkCount = uint32_t(
            (total - freq.resumeOffset + slice - 1) / slice);
        end.trajectoryHash = src->trajectoryHash;
        end.payloadHash = src->payloadHash;
        end.result = scalarResult(*src);

        // The job record stays retained (and fetchable) until the
        // client's hash-verified AckResult releases it — a stream
        // that dies with its connection costs nothing; the client
        // reconnects and resumes from its byte offset.
        counters_.streamsStarted++;
        if (freq.resumeOffset > 0)
            counters_.streamsResumed++;
        activeStreams_++;
        conn.stream = std::move(stream);
        return std::nullopt; // the stream frames are the reply
    }
    // Not finished: answer with the lifecycle state so clients can
    // poll FetchResult alone.
    StatusInfo s;
    s.jobId = freq.jobId;
    s.state = job.state;
    s.queueWaitMs = job.state == JobState::Queued
                        ? msBetween(job.enqueued, Clock::now())
                        : job.queueWaitMs;
    if (job.state == JobState::Running)
        s.serviceMs = msBetween(job.started, Clock::now());
    return encodeStatusReply(s);
}

Message
MissionServer::handleCancel(const Message &req)
{
    uint64_t id = decodeCancelMission(req);
    std::lock_guard<std::mutex> lk(mu_);
    CancelInfo c;
    c.jobId = id;
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        c.outcome = CancelOutcome::UnknownJob;
        return encodeCancelReply(c);
    }
    Job &job = it->second;
    switch (job.state) {
      case JobState::Queued: {
        for (size_t i = 0; i < queue_.size(); ++i) {
            if (queue_[i] == id) {
                queue_.erase(queue_.begin() + std::ptrdiff_t(i));
                break;
            }
        }
        job.state = JobState::Cancelled;
        counters_.cancelled++;
        auto fl = inFlightByClient_.find(job.clientId);
        if (fl != inFlightByClient_.end() && fl->second > 0)
            fl->second--;
        journalCancelLocked(id);
        markTerminalLocked(id);
        c.outcome = CancelOutcome::Dequeued;
        break;
      }
      case JobState::Running:
        c.outcome = CancelOutcome::TooLate;
        break;
      case JobState::Done:
      case JobState::Failed:
        c.outcome = CancelOutcome::AlreadyDone;
        break;
      case JobState::Cancelled:
        c.outcome = CancelOutcome::Dequeued;
        break;
      case JobState::Unknown:
        c.outcome = CancelOutcome::UnknownJob;
        break;
    }
    return encodeCancelReply(c);
}

Message
MissionServer::handleAck(const Message &req)
{
    AckRequest ack = decodeAckResult(req);
    std::lock_guard<std::mutex> lk(mu_);
    AckInfo info;
    info.jobId = ack.jobId;
    auto it = jobs_.find(ack.jobId);
    if (it == jobs_.end() || (it->second.state != JobState::Done &&
                              it->second.state != JobState::Failed)) {
        // Unknown covers the retried ack whose first attempt already
        // released the job — clients treat it as success.
        info.outcome = AckOutcome::UnknownJob;
        return encodeAckReply(info);
    }
    // The ack carries the hash of the record bytes the client
    // assembled: proof it holds exactly what we would stream.
    const auto &res = it->second.result;
    uint64_t ours = res ? res->payloadHash : fnv1a(std::string_view{});
    if (ack.payloadHash != ours) {
        // The client assembled different bytes than we hold: keep
        // the record so it can refetch from offset 0.
        info.outcome = AckOutcome::HashMismatch;
        return encodeAckReply(info);
    }
    releaseJobLocked(ack.jobId);
    counters_.resultsAcked++;
    info.outcome = AckOutcome::Released;
    return encodeAckReply(info);
}

Message
MissionServer::handleStats()
{
    std::lock_guard<std::mutex> lk(mu_);
    return encodeStatsReply(statsLocked());
}

Message
MissionServer::handleShutdown(const Message &req)
{
    bool drain = decodeShutdown(req);
    // The reply is sent by the dispatcher after this returns; the IO
    // loop keeps servicing connections until the drain completes, so
    // the flag can be set right away.
    requestShutdown(drain);
    return encodeShutdownReply();
}

void
MissionServer::sendMessage(Connection &conn, const Message &m)
{
    if (conn.dead)
        return;
    // Compact the already-flushed prefix before growing the buffer.
    if (conn.txPos > 0 && conn.txPos == conn.tx.size()) {
        conn.tx.clear();
        conn.txPos = 0;
    } else if (conn.txPos > 4096 &&
               conn.txPos >= conn.tx.size() / 2) {
        conn.tx.erase(conn.tx.begin(),
                      conn.tx.begin() + std::ptrdiff_t(conn.txPos));
        conn.txPos = 0;
    }
    bool wasIdle = conn.pendingTx() == 0;
    serializeMessage(m, conn.tx);
    if (conn.pendingTx() > cfg_.maxTxBacklogBytes) {
        rose_warn("rosed reply backlog on connection ", conn.id,
                      " exceeds ", cfg_.maxTxBacklogBytes,
                      " bytes; dropping it");
        conn.dead = true;
        return;
    }
    if (wasIdle)
        conn.txDeadline = Clock::now() +
                          std::chrono::milliseconds(cfg_.sendTimeoutMs);
    // Opportunistic flush: most replies fit the socket buffer and
    // leave nothing for the POLLOUT path.
    flushSend(conn);
}

void
MissionServer::flushSend(Connection &conn)
{
    if (conn.dead)
        return;
    while (conn.txPos < conn.tx.size()) {
        ssize_t n = ::send(conn.fd, conn.tx.data() + conn.txPos,
                           conn.tx.size() - conn.txPos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.txPos += size_t(n);
            // Any forward progress restarts the stall deadline.
            conn.txDeadline =
                Clock::now() +
                std::chrono::milliseconds(cfg_.sendTimeoutMs);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // kernel buffer full; POLLOUT will resume
        conn.dead = true; // peer gone mid-reply
        return;
    }
    conn.tx.clear();
    conn.txPos = 0;
}

void
MissionServer::closeConnection(Connection &conn)
{
    if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
    }
    releaseClientJobs(conn.id);
    std::lock_guard<std::mutex> lk(mu_);
    if (conn.stream) {
        // The stream dies with the connection, but its payload is
        // shared with the retained job record, which stays fetchable
        // — the client reconnects and resumes from its byte offset.
        conn.stream.reset();
        if (activeStreams_ > 0)
            activeStreams_--;
    }
    if (openConnections_ > 0)
        openConnections_--;
}

void
MissionServer::releaseClientJobs(uint64_t client_id)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Queued jobs of a vanished client are shed (their results could
    // never be fetched... they could, by job id, but the session is
    // gone and the queue slot is better spent on live clients).
    // Exception: a keyed submission is a client declaring it intends
    // to come back — those stay queued (orphaned below) so the
    // reconnect's idempotent resubmit finds a live job, not a
    // Cancelled tombstone.
    for (size_t i = 0; i < queue_.size();) {
        auto it = jobs_.find(queue_[i]);
        if (it != jobs_.end() && it->second.clientId == client_id &&
            it->second.idempotencyKey.empty()) {
            uint64_t id = queue_[i];
            it->second.state = JobState::Cancelled;
            counters_.cancelled++;
            queue_.erase(queue_.begin() + std::ptrdiff_t(i));
            journalCancelLocked(id);
            markTerminalLocked(id);
        } else {
            ++i;
        }
    }
    // Running/finished jobs are orphaned, not killed: the mission
    // completes and the result stays fetchable by job id.
    for (auto &[id, job] : jobs_) {
        if (job.clientId == client_id)
            job.clientId = 0;
    }
    inFlightByClient_.erase(client_id);
}

void
MissionServer::markTerminalLocked(uint64_t job_id)
{
    auto it = jobs_.find(job_id);
    if (it != jobs_.end())
        retainedBytes_ += jobRetainedBytes(it->second.result.get());
    terminalOrder_.push_back(job_id);
    // Ids already released by an ack just fall out of the FIFO; the
    // release below is a no-op for them.
    auto evictOldest = [this] {
        uint64_t oldest = terminalOrder_.front();
        terminalOrder_.pop_front();
        releaseJobLocked(oldest);
    };
    while (terminalOrder_.size() > cfg_.maxRetainedResults)
        evictOldest();
    // Byte bound: evict oldest-first until the account fits, but
    // never the newest entry — one oversized result stays fetchable
    // rather than evaporating the moment it finishes.
    while (retainedBytes_ > cfg_.maxRetainedResultBytes &&
           terminalOrder_.size() > 1)
        evictOldest();
}

bool
MissionServer::releaseJobLocked(uint64_t job_id)
{
    auto it = jobs_.find(job_id);
    if (it == jobs_.end())
        return false;
    Job &job = it->second;
    retainedBytes_ -=
        std::min(retainedBytes_, jobRetainedBytes(job.result.get()));
    if (!job.idempotencyKey.empty()) {
        auto ij = idemToJob_.find(job.idempotencyKey);
        if (ij != idemToJob_.end() && ij->second == job_id)
            idemToJob_.erase(ij);
    }
    if (journal_) {
        try {
            journal_->appendReleased(job_id);
        } catch (const JournalError &e) {
            rose_warn("rosed journal release failed for job ",
                          job_id, ": ", e.what());
        }
        journal_->removeCheckpoint(job_id);
    }
    jobs_.erase(it);
    return true;
}

void
MissionServer::journalCancelLocked(uint64_t job_id)
{
    if (!journal_)
        return;
    try {
        // A cancellation is terminal with an empty result; on replay
        // the job comes back as a Cancelled tombstone, not requeued.
        journal_->appendTerminal(job_id, JobState::Cancelled,
                                 ServedResult{});
    } catch (const JournalError &e) {
        rose_warn("rosed journal cancel failed for job ", job_id,
                      ": ", e.what());
    }
    journal_->removeCheckpoint(job_id);
}

} // namespace rose::serve
