// Real epoll TCP transport (DESIGN.md §3.7).
//
// TcpTransport puts the Transport abstraction — the same interface
// SimulatedNetwork and ReliableTransport implement — on genuine
// non-blocking sockets, so the multi-round SDC↔STP↔SU protocol pays real
// syscall, framing and scheduling costs. One instance plays either (or
// both) of two roles:
//   * server — listen() binds 127.0.0.1:port (port 0 = kernel-assigned,
//     discovered via port(); every test binds 0, killing the port-collision
//     flake class), accepts connections under an admission cap, and learns
//     return routes from the `from` field of arriving frames;
//   * client — connect() opens a connection and routes the given endpoint
//     names (e.g. "sdc", "stp") over it. Any number of logical sessions
//     multiplex over one connection.
//
// Threading model: one I/O thread runs the epoll loop and touches sockets
// exclusively; one dispatch thread runs application handlers and timer
// callbacks strictly serially, in arrival order. The split is what makes
// the front-end async — a handler deep in a Paillier pipeline never stalls
// accepts, reads or writes — while the serial dispatch lane preserves the
// entities' single-threaded handler contract (their internal batch
// pipelines fan out on the shared exec::ThreadPool as usual, DESIGN.md
// §3.1/§3.5).
//
// Flow control, both directions:
//   * write side — each connection owns a bounded write queue. A peer that
//     stops reading (responses pile up against a full socket buffer) is
//     disconnected once the queue tops max_write_queue_bytes: server memory
//     stays bounded by max_connections × cap instead of OOMing behind one
//     slow reader.
//   * read side — parsed-but-undispatched frames are bounded too: past
//     dispatch_high_water the I/O thread drops EPOLLIN interest on every
//     data connection, kernel socket buffers fill, and the senders' own
//     write queues absorb the backpressure; reads resume below
//     dispatch_low_water.
//
// Delivery semantics: TCP gives in-order exactly-once delivery per
// connection, so there is no seq/ack machinery here. Across connection
// resets the transport is at-most-once; exactly-once is the application
// dedup layer's job (net::DedupWindow keyed on (sender, seq), PR 2), which
// works because send() stamps every frame from a transport-global counter
// and a re-sending caller may pin Message::net_seq to its first attempt.
// remove_endpoint/re-register keeps PR 6's restart semantics: frames for a
// removed name are recorded as delivery failures, never delivered late.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "net/bus.hpp"
#include "net/frame.hpp"

namespace pisa::net {

struct TcpOptions {
  /// Framer ceiling per record (flipped length prefixes must not allocate).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-connection bound on queued-but-unwritten bytes; a connection whose
  /// queue exceeds this is closed as a slow reader.
  std::size_t max_write_queue_bytes = 32u << 20;

  /// Accept admission cap: connections beyond this are accepted and
  /// immediately closed (the cheap way to shed load without leaving the
  /// backlog to time out).
  std::size_t max_connections = 1024;

  /// Read-side backpressure: pause EPOLLIN on data connections once this
  /// many parsed frames await dispatch; resume below dispatch_low_water.
  std::size_t dispatch_high_water = 4096;
  std::size_t dispatch_low_water = 1024;
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpOptions opts = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind + listen on 127.0.0.1:`port` (0 = ephemeral) and return the bound
  /// port. One listener per transport; throws std::runtime_error on failure
  /// or if already listening.
  std::uint16_t listen(std::uint16_t port = 0);
  std::uint16_t port() const { return port_; }

  /// Open a client connection and route messages addressed to any name in
  /// `route_names` over it. Returns the connection id. Throws on failure.
  std::uint64_t connect(const std::string& host, std::uint16_t port,
                        std::vector<std::string> route_names);

  /// Hard-close one connection (test hook: simulates a reset mid-session).
  /// Unwritten queued frames are dropped with it. Idempotent.
  void close_connection(std::uint64_t conn_id);

  // --- Transport ------------------------------------------------------------
  void register_endpoint(const std::string& name, Handler handler) override;
  void remove_endpoint(const std::string& name) override;

  /// Route and enqueue one message. Thread-safe. Local `to` endpoints are
  /// dispatched through the same serial lane as network arrivals (so
  /// SDC↔STP traffic inside one process needs no socket); unroutable
  /// messages are recorded as delivery failures, mirroring
  /// SimulatedNetwork's semantics. net_seq 0 is replaced from the
  /// transport-global counter; a nonzero net_seq is preserved (re-send
  /// pinning for application-level dedup).
  void send(Message m) override;

  /// Real-time timer: `fn` runs on the dispatch thread after `delay_us`
  /// microseconds of wall clock (the simulated stack interprets the same
  /// call in virtual time).
  void schedule_after(double delay_us, std::function<void()> fn) override;

  /// Idle work for the dispatch lane (DESIGN.md §3.7): `hook` runs on the
  /// dispatch thread, one bounded slice per call, only while no frame or
  /// due timer is queued and no quiesce() is waiting. It returns whether
  /// more work remains; false parks it until the lane next dispatches
  /// something. Install before traffic starts.
  void set_idle_hook(std::function<bool()> hook);

  // --- teardown / draining --------------------------------------------------
  /// Stop both threads and close every socket. Called by the destructor;
  /// idempotent. Frames already handed to handlers are done; queued ones
  /// are dropped; a running idle slice finishes first.
  void stop();

  /// Block until every connection's write queue is empty (all queued bytes
  /// handed to the kernel) or `timeout_ms` elapses. Returns true when
  /// drained — the clean-teardown handshake tests use before stop().
  bool flush(double timeout_ms);

  /// Block until the dispatch lane is idle — queue empty and no handler
  /// executing — or `timeout_ms` elapses. Returns true when idle. An idle
  /// slice already running is waited for; no new one starts while a
  /// quiesce() waits (slices resume once it returns). Because
  /// handlers enqueue their local follow-on sends before returning (the
  /// serial lane), an idle lane means every causal chain rooted in an
  /// already-dispatched frame has fully run; frames still in the kernel or
  /// on the I/O thread are not covered, so callers gate on an
  /// application-level arrival signal first.
  bool quiesce(double timeout_ms);

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_opened = 0;   ///< client-side connect()s
    std::uint64_t connections_closed = 0;
    std::uint64_t admission_rejected = 0;   ///< accepted-then-closed over cap
    std::uint64_t slow_reader_closed = 0;   ///< write-queue cap exceeded
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;           ///< on-the-wire (incl. framing)
    std::uint64_t bytes_received = 0;
    std::uint64_t local_delivered = 0;      ///< loopback (no socket) deliveries
    std::uint64_t corrupt_streams = 0;      ///< CRC/layout reject → conn drop
    std::uint64_t oversize_streams = 0;     ///< length-prefix reject → drop
    std::uint64_t truncated_streams = 0;    ///< EOF mid-frame
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_no_endpoint = 0;
    std::uint64_t reads_paused = 0;         ///< backpressure engagements
    std::size_t peak_write_queue_bytes = 0; ///< high-water across all conns
    std::size_t peak_dispatch_depth = 0;
  };
  Stats stats() const;

  /// send()s that could not be delivered (no route / endpoint removed),
  /// mirroring SimulatedNetwork::delivery_failures().
  std::vector<DeliveryFailure> delivery_failures() const;

 private:
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    bool inbound = false;
    FrameReader reader;
    std::deque<std::vector<std::uint8_t>> wq;
    std::size_t wq_front_off = 0;  // bytes of wq.front() already written
    std::size_t wq_bytes = 0;
    bool want_write = false;   // EPOLLOUT armed
    bool read_paused = false;  // EPOLLIN dropped (backpressure)
    bool doomed = false;       // close at next I/O-thread opportunity

    explicit Conn(std::size_t max_frame) : reader(max_frame) {}
  };

  struct DispatchItem {
    Message msg;                  // valid when fn is empty
    std::function<void()> fn;     // timer / internal callback
  };

  struct TimerItem {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const TimerItem& o) const {
      if (due != o.due) return due > o.due;
      return seq > o.seq;
    }
  };

  void io_loop();
  void dispatch_loop();
  bool timer_due();  // takes mu_
  void wake_io();

  // All of the below require mu_ held unless noted.
  void enqueue_dispatch_locked(DispatchItem item);
  void queue_frame_locked(Conn& c, const Message& m);
  void close_conn_locked(Conn& c);
  void record_failure_locked(const Message& m, std::string reason);

  // I/O-thread only.
  void handle_accept();
  void handle_readable(std::uint64_t conn_id);
  void handle_writable(std::uint64_t conn_id);
  void apply_read_pause();
  void update_epoll_interest(Conn& c);

  TcpOptions opts_;

  int epfd_ = -1;
  int wake_fd_ = -1;
  std::atomic<int> listen_fd_{-1};  // read lock-free by handle_accept()
  std::uint16_t port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  // flush(): all write queues empty
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::string, Handler> endpoints_;
  std::map<std::string, std::uint64_t> routes_;  // endpoint name → conn id
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  std::vector<DeliveryFailure> failures_;
  bool reads_paused_ = false;

  std::priority_queue<TimerItem, std::vector<TimerItem>, std::greater<>> timers_;
  std::uint64_t next_timer_seq_ = 0;

  std::mutex dmu_;
  std::condition_variable dispatch_cv_;
  std::condition_variable dispatch_idle_cv_;  // quiesce(): lane went idle
  std::deque<DispatchItem> dispatch_;
  bool dispatch_busy_ = false;  // a handler or idle slice is executing (dmu_)
  std::function<bool()> idle_hook_;  // set_idle_hook (dmu_)
  bool idle_more_ = false;      // the hook may have work (dmu_)
  std::size_t quiescers_ = 0;   // quiesce() callers waiting (dmu_)

  std::atomic<bool> stopping_{false};
  std::thread io_thread_;
  std::thread dispatch_thread_;
};

}  // namespace pisa::net
