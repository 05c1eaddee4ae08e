#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/prometheus.h"
#include "obs/rss.h"
#include "serve/protocol.h"

namespace tpiin {

namespace {

/// The wake pipe's write end, published for the signal handlers. One
/// server per process may be signal-wired at a time (the CLI's case);
/// tests running several servers drive Shutdown()/Reload() directly
/// instead.
std::atomic<int> g_signal_wake_fd{-1};

/// Wake-pipe byte protocol: the pipe carries intent, not just a wakeup.
/// Any byte other than kWakeReload means shutdown, so the pre-reload
/// convention (write a 1) still stops the server.
constexpr char kWakeShutdown = 'q';
constexpr char kWakeReload = 'r';

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

struct timeval TimeoutToTimeval(double seconds) {
  struct timeval tv;
  if (seconds <= 0) {
    // {0,0} = no timeout; lets a shortened deadline be reset to "none".
    tv.tv_sec = 0;
    tv.tv_usec = 0;
    return tv;
  }
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  // A sub-microsecond positive deadline must not round to "no timeout".
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

void SetReadTimeout(int fd, double seconds) {
  const struct timeval tv = TimeoutToTimeval(seconds);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void SetWriteTimeout(int fd, double seconds) {
  if (seconds <= 0) return;
  const struct timeval tv = TimeoutToTimeval(seconds);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Evaluates a failpoint site without the return-macro: the serve loops
/// must keep running after an injected fault, so the Status is handed
/// back for local handling instead of propagated.
Status CheckFailpoint(const char* site) {
  if (!Failpoints::AnyActive()) return Status::OK();
  return Failpoints::Check(site);
}

/// (registry entry, section, key) of each stats key in the reload,
/// requests and cache sections, in render order: `stats` and the
/// Prometheus text read one registry, so they can never disagree.
constexpr const char* kStatsKeys[][3] = {
    {"serve.reload.attempts", "reload", "attempts"},
    {"serve.reload.success", "reload", "swaps"},
    {"serve.reload.unchanged", "reload", "noops"},
    {"serve.reload.failures", "reload", "failures"},
    {"serve.connections.accepted", "requests", "connections_accepted"},
    {"serve.connections.refused", "requests", "connections_refused"},
    {"serve.requests", "requests", "requests"},
    {"serve.requests.ok", "requests", "ok"},
    {"serve.requests.degraded", "requests", "degraded"},
    {"serve.requests.busy", "requests", "busy"},
    {"serve.requests.errors", "requests", "errors"},
    {"serve.requests.read_errors", "requests", "read_errors"},
    {"serve.requests.write_errors", "requests", "write_errors"},
    {"serve.inflight", "requests", "inflight"},
    // The caches are shared across generations (keys embed each
    // generation's CRC), so these are daemon-lifetime totals.
    {"serve.cache.bundle_entries", "cache", "bundle_entries"},
    {"serve.cache.bundle_capacity", "cache", "bundle_capacity"},
    {"serve.cache.bundle_hit", "cache", "bundle_hits"},
    {"serve.cache.bundle_miss", "cache", "bundle_misses"},
    {"serve.cache.bundle_eviction", "cache", "bundle_evictions"},
    {"serve.cache.entries", "cache", "sub_entries"},
    {"serve.cache.capacity", "cache", "sub_capacity"},
    {"serve.cache.hit", "cache", "sub_hits"},
    {"serve.cache.miss", "cache", "sub_misses"},
    {"serve.cache.eviction", "cache", "sub_evictions"},
};

Response OkResponse(const Request& request, std::string payload) {
  Response resp;
  resp.id = request.id;
  resp.verb = request.verb;
  resp.status = "ok";
  resp.payload = std::move(payload);
  return resp;
}

const char* CacheToken(RequestTelemetry::Cache cache) {
  switch (cache) {
    case RequestTelemetry::Cache::kNone:
      return "none";
    case RequestTelemetry::Cache::kHit:
      return "hit";
    case RequestTelemetry::Cache::kMiss:
      return "miss";
  }
  return "none";
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      admission_(options.max_inflight, options.max_queue,
                 metrics_.GetGauge("serve.inflight")),
      connections_accepted_(metrics_.GetCounter("serve.connections.accepted")),
      connections_refused_(metrics_.GetCounter("serve.connections.refused")),
      requests_(metrics_.GetCounter("serve.requests")),
      ok_(metrics_.GetCounter("serve.requests.ok")),
      degraded_(metrics_.GetCounter("serve.requests.degraded")),
      busy_(metrics_.GetCounter("serve.requests.busy")),
      errors_(metrics_.GetCounter("serve.requests.errors")),
      read_errors_(metrics_.GetCounter("serve.requests.read_errors")),
      write_errors_(metrics_.GetCounter("serve.requests.write_errors")),
      connections_active_(metrics_.GetGauge("serve.connections.active")),
      queue_us_(metrics_.GetHistogram("serve.queue_us")),
      uptime_ms_(metrics_.GetGauge("serve.uptime_ms")),
      current_rss_bytes_(metrics_.GetGauge("process.current_rss_bytes")),
      peak_rss_bytes_(metrics_.GetGauge("process.peak_rss_bytes")),
      slow_ring_(options.slow_requests) {
  // The verb table: every verb the daemon answers, declared once. The
  // last two rows never match a wire verb: `other` serves any verb not
  // listed (answered "unknown verb"), `malformed` a line that did not
  // parse. No metric or span name comes from the wire, and every
  // family exists, at zero, from the first scrape.
  verbs_ = {
      {"groups", "serve.groups", &Server::HandleQueryVerb},
      {"explain", "serve.explain", &Server::HandleQueryVerb},
      {"rescore", "serve.rescore", &Server::HandleQueryVerb},
      {"stats", "serve.stats", &Server::HandleStatsVerb},
      {"metrics", "serve.metrics", &Server::HandleMetricsVerb},
      {"slow", "serve.slow", &Server::HandleSlowVerb},
      {"healthz", "serve.healthz", &Server::HandleHealthzVerb},
      {"reload", "serve.reload", &Server::HandleReloadVerb},
      {"other", "serve.other", &Server::HandleQueryVerb},
      {"malformed", "serve.malformed", nullptr},
  };
  for (Verb& verb : verbs_) {
    verb.requests =
        &metrics_.GetCounter(std::string("serve.requests.") + verb.name);
    verb.latency =
        &metrics_.GetHistogram(std::string("serve.latency_us.") + verb.name);
  }
}

const Server::Verb& Server::VerbFor(const Result<Request>& request) const {
  if (!request.ok()) return verbs_.back();
  // The last two rows (other, malformed) are never matched by name.
  for (size_t i = 0; i + 2 < verbs_.size(); ++i) {
    if (request->verb == verbs_[i].name) return verbs_[i];
  }
  return verbs_[verbs_.size() - 2];
}

Result<std::unique_ptr<Server>> Server::Start(const ServeOptions& options) {
  std::unique_ptr<Server> server(new Server(options));

  if (!options.access_log_path.empty()) {
    // An unopenable access log is a startup failure, not a degraded
    // run: an operator who asked for the log must not silently lose it.
    // Opened before the registry, which logs its reload events here.
    std::string error;
    server->access_log_ = JsonLogSink::Open(options.access_log_path, &error);
    if (server->access_log_ == nullptr) return Status::IOError(error);
  }

  SnapshotOpenOptions open_options;
  open_options.verify_checksums = options.verify_checksums;
  server->registry_ = std::make_unique<SnapshotRegistry>(
      options.service, open_options, server->metrics_,
      server->access_log_.get());
  TPIIN_RETURN_IF_ERROR(
      server->registry_->LoadInitial(options.snapshot_path));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable host (want IPv4 dotted quad): " +
                                   options.host);
  }

  server->listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(server->listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (listen(server->listen_fd_, 64) != 0) return ErrnoStatus("listen");

  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(server->listen_fd_,
                  reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) != 0) {
    return ErrnoStatus("getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];
  // Non-blocking write end: a signal handler must never block, and a
  // full pipe already means a wakeup is pending. Non-blocking read end:
  // the acceptor drains whatever bytes are queued without parking.
  fcntl(server->wake_write_fd_, F_SETFL, O_NONBLOCK);
  fcntl(server->wake_read_fd_, F_SETFL, O_NONBLOCK);
  g_signal_wake_fd.store(server->wake_write_fd_, std::memory_order_release);

  server->started_at_ = std::chrono::steady_clock::now();
  // Everything fallible is behind us: install the live-traffic trace
  // recorder and start the background threads last, so a failed Start
  // never leaves a recorder installed or a thread running.
  if (!options.trace_out_path.empty()) {
    server->trace_ = std::make_unique<TraceRecorder>();
    server->trace_->Install();
  }
  if (!options.metrics_out_path.empty()) {
    server->metrics_writer_ =
        std::thread([s = server.get()] { s->MetricsWriterLoop(); });
  }
  // The reload worker exists for the server's whole lifetime (it is
  // the SIGHUP target); idle, it costs one parked thread.
  server->reload_worker_ =
      std::thread([s = server.get()] { s->ReloadWorkerLoop(); });
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  TPIIN_LOG(Info) << "serving " << options.snapshot_path << " on "
                  << options.host << ":" << server->port_;
  return server;
}

Server::~Server() {
  Shutdown();
  if (acceptor_.joinable()) Wait();
  g_signal_wake_fd.store(-1, std::memory_order_release);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
}

void Server::RequestShutdownFromSignal() {
  // Async-signal-safe: one atomic load and one write(2).
  const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    [[maybe_unused]] ssize_t n = write(fd, &kWakeShutdown, 1);
  }
}

void Server::RequestReloadFromSignal() {
  // Async-signal-safe: the actual reload happens on the reload worker
  // once the acceptor reads the byte off the pipe. A full pipe means
  // wakeups are already pending; losing the byte would lose at most a
  // coalesced-away duplicate reload.
  const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    [[maybe_unused]] ssize_t n = write(fd, &kWakeReload, 1);
  }
}

void Server::Shutdown() {
  if (stopping_.exchange(true)) return;
  [[maybe_unused]] ssize_t n = write(wake_write_fd_, &kWakeShutdown, 1);
}

void Server::AcceptLoop() {
  while (true) {
    struct pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_read_fd_, POLLIN, 0};
    const int ready = poll(fds, 2, /*timeout_ms=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) {
      // Drain the wake pipe and act on what it carried: reload bytes
      // (coalesced — ten queued SIGHUPs are one reload) are handed to
      // the reload worker; anything else is a shutdown request.
      char bytes[64];
      bool reload = false;
      bool quit = false;
      ssize_t n;
      while ((n = read(wake_read_fd_, bytes, sizeof(bytes))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (bytes[i] == kWakeReload) {
            reload = true;
          } else {
            quit = true;
          }
        }
      }
      if (reload && !quit) NotifyReloadWorker();
      if (quit) {
        stopping_.store(true, std::memory_order_release);
        break;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (!(fds[0].revents & POLLIN)) continue;

    // Reap terminated connection threads before taking a new one, so
    // the finished backlog stays bounded by the admission cap rather
    // than growing with every connection ever served.
    ReapFinishedConnections();

    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    // 1-based accept serial; the "c" half of this connection's request
    // IDs ("c<conn>-r<seq>"). Only this thread bumps the accepted
    // counter, so its value is the serial.
    connections_accepted_.Add(1);
    const uint64_t conn_id = connections_accepted_.Value();
    // Every write on this connection (including the busy refusal below)
    // is bounded: a client that stops draining cannot stall a thread.
    SetWriteTimeout(fd, options_.write_deadline_seconds);

    if (!CheckFailpoint("serve.accept").ok()) {
      // Injected accept fault: drop this connection, keep serving.
      close(fd);
      continue;
    }

    // Admission is decided here, on the acceptor, so saturation is a
    // deterministic function of open connections — not of worker
    // scheduling. A refused connection gets one busy line and is closed.
    if (!admission_.TryEnterConnection()) {
      connections_refused_.Add(1);
      busy_.Add(1);
      Response resp;
      // r0: refused before any request line was read.
      resp.request_id =
          StringPrintf("c%llu-r0", static_cast<unsigned long long>(conn_id));
      resp.status = "busy";
      resp.error = StringPrintf(
          "server at capacity (%zu in flight + %zu queued)",
          options_.max_inflight, options_.max_queue);
      const std::string wire = SerializeResponse(resp) + "\n";
      // Log before ack, as for request records below.
      if (access_log_ != nullptr) {
        std::vector<LogField> fields;
        fields.emplace_back("conn", conn_id);
        fields.emplace_back("req", resp.request_id);
        fields.emplace_back("status", resp.status);
        fields.emplace_back("bytes", static_cast<uint64_t>(wire.size()));
        access_log_->Event(LogLevel::kWarning, "serve", "refused", fields);
      }
      WriteWire(fd, wire);
      close(fd);
      continue;
    }

    SetReadTimeout(fd, options_.idle_timeout_seconds);
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_fds_.insert(fd);
      ++active_connections_;
      connections_active_.Set(static_cast<int64_t>(active_connections_));
      // A dedicated I/O thread, not a pool task: parked in recv it
      // costs one idle thread, never a pool worker. The admission cap
      // bounds how many exist at once; each hands itself back via
      // finished_threads_ when done.
      auto it = connection_threads_.emplace(connection_threads_.end());
      *it = std::thread(
          [this, fd, conn_id, it] { HandleConnection(fd, conn_id, it); });
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  accept_done_ = true;
  drained_cv_.notify_all();
}

bool Server::ReadLine(int fd, std::string* buffer, std::string* line) {
  WallTimer line_timer;
  // The line deadline runs while a partial line is pending: leftover
  // bytes in the buffer are mid-line from a previous recv, otherwise
  // the clock starts at the first byte of this line. A fully idle
  // connection stays governed by the (longer) idle timeout alone.
  bool mid_line = !buffer->empty();
  bool timeout_shortened = false;
  bool injected_eintr = false;
  while (true) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      if (timeout_shortened) {
        SetReadTimeout(fd, options_.idle_timeout_seconds);
      }
      return true;
    }
    if (buffer->size() > options_.max_line_bytes) {
      read_errors_.Add(1);
      Response resp;
      resp.status = "error";
      resp.error = StringPrintf("request line over %zu bytes",
                                options_.max_line_bytes);
      WriteResponse(fd, resp);
      return false;
    }
    if (mid_line && options_.line_deadline_seconds > 0) {
      const double remaining =
          options_.line_deadline_seconds - line_timer.ElapsedSeconds();
      if (remaining <= 0) {
        // Slow loris: the line never completed inside its budget. Tell
        // the client why, then drop the connection.
        read_errors_.Add(1);
        Response resp;
        resp.status = "error";
        resp.error = StringPrintf(
            "request line not completed within %.3fs",
            options_.line_deadline_seconds);
        WriteResponse(fd, resp);
        return false;
      }
      double window = remaining;
      if (options_.idle_timeout_seconds > 0) {
        window = std::min(window, options_.idle_timeout_seconds);
      }
      SetReadTimeout(fd, window);
      timeout_shortened = true;
    }
    // serve.io.read.*: connection-level I/O hazards. A short read must
    // reassemble correctly; a signal-interrupted recv must retry. The
    // EINTR injection is once per ReadLine call, so an `error` (fire
    // every hit) policy cannot spin this loop forever.
    size_t want = 4096;
    if (!CheckFailpoint("serve.io.read.short").ok()) want = 1;
    if (!injected_eintr && !CheckFailpoint("serve.io.read.eintr").ok()) {
      injected_eintr = true;
      continue;
    }
    char chunk[4096];
    const ssize_t n = recv(fd, chunk, want, 0);
    if (n == 0) return false;  // Orderly EOF (or SHUT_RD during drain).
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The shortened SO_RCVTIMEO may fire exactly at the line
        // deadline; route that through the deadline branch above so
        // the client gets the explanatory error.
        if (mid_line && options_.line_deadline_seconds > 0 &&
            line_timer.ElapsedSeconds() >= options_.line_deadline_seconds) {
          continue;
        }
        return false;  // Idle timeout.
      }
      read_errors_.Add(1);
      return false;
    }
    if (!CheckFailpoint("serve.read").ok()) {
      // Injected read fault: this connection is lost mid-stream; the
      // server keeps serving others.
      read_errors_.Add(1);
      return false;
    }
    if (!mid_line) {
      mid_line = true;
      line_timer.Restart();
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

void Server::WriteResponse(int fd, const Response& response) {
  WriteWire(fd, SerializeResponse(response) + "\n");
}

bool Server::WriteWire(int fd, const std::string& line) {
  bool injected_eintr = false;
  size_t written = 0;
  while (written < line.size()) {
    // serve.io.write.*: mirror of the read-side hazards — short writes
    // must resume at the right offset, EINTR must retry (once per call,
    // so an always-fire policy cannot loop forever).
    size_t want = line.size() - written;
    if (!CheckFailpoint("serve.io.write.short").ok()) want = 1;
    if (!injected_eintr && !CheckFailpoint("serve.io.write.eintr").ok()) {
      injected_eintr = true;
      continue;
    }
    // MSG_NOSIGNAL: a client that hung up must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n = send(fd, line.data() + written, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK = the SO_SNDTIMEO write deadline: the client
      // stopped draining. Either way this connection is done.
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

void Server::HandleConnection(int fd, uint64_t conn_id,
                              std::list<std::thread>::iterator self) {
  TPIIN_LOG(Debug) << "connection c" << conn_id << " open";
  std::string buffer;
  std::string line;
  uint64_t request_seq = 0;
  while (ReadLine(fd, &buffer, &line)) {
    // Blank lines are keep-alive noise, not requests.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    // One span per request, covering queue wait, evaluation and the
    // response write; named sub-spans nest inside it.
    TPIIN_SPAN("serve.request");
    WallTimer queue_timer;
    bool admitted = false;
    {
      TPIIN_SPAN("serve.queue");
      admitted = admission_.AcquireRequestSlot();
    }
    if (!admitted) break;  // Shutdown abort.
    const uint64_t queue_us =
        static_cast<uint64_t>(queue_timer.ElapsedMicros());
    // Request IDs are "c<conn>-r<seq>", seq 1-based and monotonic per
    // connection — minted here, echoed on the wire, and naming this
    // request in the access log, the trace and the slow ring.
    ++request_seq;
    const std::string request_id = StringPrintf(
        "c%llu-r%llu", static_cast<unsigned long long>(conn_id),
        static_cast<unsigned long long>(request_seq));
    requests_.Add(1);

    WallTimer timer;
    Response resp;
    RequestTelemetry telemetry;
    Result<Request> request = ParseRequestLine(line);
    const Verb& row = VerbFor(request);
    // The raw verb names the request in the access log and the slow
    // ring (both escape it); metrics and spans use the table row.
    const std::string verb = request.ok() ? request->verb : row.name;
    {
#if TPIIN_OBS_ENABLED
      TraceSpan verb_span(row.span);
#endif
      if (!request.ok()) {
        resp.status = "error";
        resp.error = request.status().ToString();
        read_errors_.Add(1);
      } else if (!CheckFailpoint("serve.handle").ok()) {
        // Injected handler fault: this request errors, the connection
        // and the server carry on.
        resp.id = request->id;
        resp.verb = request->verb;
        resp.status = "error";
        resp.error = "injected failure at serve.handle";
      } else {
        resp = (this->*row.handle)(*request, &telemetry);
      }
    }
    resp.request_id = request_id;

    row.requests->Add(1);
    if (resp.status == "ok") {
      ok_.Add(1);
    } else if (resp.status == "degraded") {
      degraded_.Add(1);
    } else if (resp.status == "busy") {
      busy_.Add(1);
    } else {
      errors_.Add(1);
    }
    const uint64_t handle_us =
        static_cast<uint64_t>(timer.ElapsedMicros());
    row.latency->Record(handle_us);
    queue_us_.Record(queue_us);

    const std::string wire = SerializeResponse(resp) + "\n";

    // Log before ack: the record must be in the file before the client
    // can act on the response. A client that reacts to this answer by
    // opening another connection (which may be refused, producing its
    // own record) would otherwise race its record ahead of this one,
    // breaking the log's happens-before ordering.
    const char* cache = CacheToken(telemetry.cache);
    if (access_log_ != nullptr) {
      std::vector<LogField> fields;
      fields.reserve(8);
      fields.emplace_back("conn", conn_id);
      fields.emplace_back("req", request_id);
      fields.emplace_back("verb", verb);
      fields.emplace_back("status", resp.status);
      fields.emplace_back("bytes", static_cast<uint64_t>(wire.size()));
      fields.emplace_back("cache", cache);
      fields.emplace_back("queue_us", queue_us);
      fields.emplace_back("handle_us", handle_us);
      access_log_->Event(resp.status == "error" ? LogLevel::kWarning
                                                : LogLevel::kInfo,
                         "serve", "request", fields);
    }

    const bool wrote = WriteWire(fd, wire);
    if (!wrote) write_errors_.Add(1);
    if (slow_ring_.capacity() > 0) {
      SlowRequest slow;
      slow.request_id = request_id;
      slow.verb = verb;
      slow.status = resp.status;
      slow.cache = cache;
      slow.bytes = wire.size();
      slow.queue_us = queue_us;
      slow.handle_us = handle_us;
      slow.detect_seconds = telemetry.detect_seconds;
      slow.segment_seconds = telemetry.segment_seconds;
      slow.mine_seconds = telemetry.mine_seconds;
      slow.finalize_seconds = telemetry.finalize_seconds;
      slow_ring_.Record(std::move(slow));
    }

    admission_.ReleaseRequestSlot();
    // A dead write half means the client is gone; further reads would
    // only evaluate requests whose answers cannot be delivered.
    if (!wrote) break;
  }

  // Bookkeeping strictly before close(fd): once the fd is closed the
  // kernel may hand the same number to a fresh accept, and an erase
  // after that would remove the NEW connection from open_fds_ — leaving
  // it invisible to DrainConnections. Same for LeaveConnection: freeing
  // the admission slot is what lets the acceptor admit a successor.
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_fds_.erase(fd);
    --active_connections_;
    connections_active_.Set(static_cast<int64_t>(active_connections_));
    // Hand our own handle to the reaper; joining it merely waits out
    // the few instructions left below.
    finished_threads_.push_back(std::move(*self));
    connection_threads_.erase(self);
    drained_cv_.notify_all();
  }
  close(fd);
  admission_.LeaveConnection();
  TPIIN_LOG(Debug) << "connection c" << conn_id << " closed after "
                   << request_seq << " request(s)";
}

Response Server::HandleQueryVerb(const Request& request,
                                 RequestTelemetry* telemetry) {
  // Pin this request's generation: it holds the shared_ptr for the
  // whole evaluation, so a hot-reload mid-request swaps the registry
  // but cannot unmap the snapshot being read here. The next request on
  // this connection picks up the new generation.
  const std::shared_ptr<const SnapshotGeneration> generation =
      registry_->Current();
  return generation->service->Handle(request, telemetry);
}

Response Server::HandleStatsVerb(const Request& request, RequestTelemetry*) {
  return OkResponse(request, BuildStatsReport().ToJson());
}

Response Server::HandleMetricsVerb(const Request& request,
                                   RequestTelemetry*) {
  return OkResponse(request, BuildMetricsText());
}

Response Server::HandleSlowVerb(const Request& request, RequestTelemetry*) {
  return OkResponse(request, BuildSlowPayload());
}

Response Server::HandleReloadVerb(const Request& request, RequestTelemetry*) {
  Response resp;
  resp.id = request.id;
  resp.verb = request.verb;
  // Synchronous: the registry validates the candidate end-to-end before
  // answering, so an `ok` here means the swap (or no-op) is complete
  // and the next query on any connection sees the outcome. Rejections
  // surface the validation error verbatim; the old generation is
  // untouched.
  Result<ReloadOutcome> outcome = registry_->Reload(request.path);
  if (!outcome.ok()) {
    resp.status = "error";
    resp.error = outcome.status().ToString();
    return resp;
  }
  const SnapshotGeneration& generation = *outcome->generation;
  resp.status = "ok";
  resp.payload = StringPrintf(
      "generation: %llu\nsnapshot: %s\ncrc: %08x\nswapped: %s\n",
      static_cast<unsigned long long>(generation.id),
      generation.path.c_str(), generation.crc(),
      outcome->swapped ? "true" : "false");
  return resp;
}

Response Server::HandleHealthzVerb(const Request& request,
                                   RequestTelemetry*) {
  // First line stays the bare "ok" (a `head -1` liveness probe keeps
  // working); the rest is the reload metadata an operator polls to
  // confirm a swap landed.
  const std::shared_ptr<const SnapshotGeneration> generation =
      registry_->Current();
  return OkResponse(
      request,
      StringPrintf(
          "ok\ngeneration: %llu\nsnapshot: %s\ncrc: %08x\nloaded: %s\n"
          "reloads: ok=%llu failed=%llu unchanged=%llu\n",
          static_cast<unsigned long long>(generation->id),
          generation->path.c_str(), generation->crc(),
          FormatLogTimestamp(generation->loaded_unix_micros).c_str(),
          static_cast<unsigned long long>(registry_->reload_swaps()),
          static_cast<unsigned long long>(registry_->reload_failures()),
          static_cast<unsigned long long>(registry_->reload_noops())));
}

void Server::NotifyReloadWorker() {
  {
    std::lock_guard<std::mutex> lock(reload_worker_mu_);
    reload_pending_ = true;
  }
  reload_worker_cv_.notify_all();
}

void Server::ReloadWorkerLoop() {
  std::unique_lock<std::mutex> lock(reload_worker_mu_);
  while (true) {
    reload_worker_cv_.wait(
        lock, [this] { return reload_worker_stop_ || reload_pending_; });
    if (reload_worker_stop_) break;
    reload_pending_ = false;
    lock.unlock();
    // Outcome and errors are fully accounted inside the registry
    // (counters, TPIIN_LOG, structured events); a failed SIGHUP reload
    // must not touch the serving state, so there is nothing to do with
    // the status here.
    (void)registry_->Reload();
    lock.lock();
  }
}

void Server::ReapFinishedConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_threads_);
  }
  for (std::thread& thread : finished) {
    if (thread.joinable()) thread.join();
  }
}

void Server::DrainConnections() {
  // Phase 1 (graceful): sever the read half of every open connection.
  // A task parked in recv sees EOF and winds down; a task mid-request
  // still owns a live write half and gets to answer.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_connections_ > 0) {
      TPIIN_LOG(Info) << "draining " << active_connections_
                      << " connection(s), budget " << options_.drain_seconds
                      << "s";
    }
    for (int fd : open_fds_) shutdown(fd, SHUT_RD);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait_for(
        lock,
        std::chrono::duration<double>(options_.drain_seconds),
        [this] { return active_connections_ == 0; });
  }

  // Phase 2 (forced): whatever is still running lost its drain budget.
  // Abort slot waiters and sever both halves; the final wait is
  // unbounded because each remaining task holds `this` and must fully
  // unwind before the server may be destroyed.
  admission_.Abort();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_fds_.empty()) {
      TPIIN_LOG(Warning) << "drain budget expired; severing "
                         << open_fds_.size() << " connection(s)";
    }
    for (int fd : open_fds_) shutdown(fd, SHUT_RDWR);
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return active_connections_ == 0; });
}

ServeSummary Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return accept_done_; });
  }
  if (acceptor_.joinable()) acceptor_.join();
  DrainConnections();
  // Every handler has decremented active_connections_ and moved its
  // handle to finished_threads_; joining is now just reaping the final
  // few instructions of each thread. connection_threads_ is drained
  // too, defensively — it should already be empty.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(finished_threads_);
    for (std::thread& thread : connection_threads_) {
      threads.push_back(std::move(thread));
    }
    connection_threads_.clear();
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }

  // Stop the reload worker; a reload already in progress completes
  // first (harmless: draining requests grabbed their generation long
  // ago, and the registry outlives every connection).
  if (reload_worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reload_worker_mu_);
      reload_worker_stop_ = true;
    }
    reload_worker_cv_.notify_all();
    reload_worker_.join();
  }

  // Stop the metrics writer and leave one final snapshot behind, so a
  // scrape after shutdown sees the daemon's complete lifetime.
  if (metrics_writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(metrics_writer_mu_);
      metrics_writer_stop_ = true;
    }
    metrics_writer_cv_.notify_all();
    metrics_writer_.join();
    const Status status =
        WriteFileAtomic(options_.metrics_out_path, BuildMetricsText());
    if (!status.ok()) {
      TPIIN_LOG(Warning) << "final metrics snapshot failed: "
                         << status.ToString();
    }
  }

  // Every span-producing thread is joined, so uninstalling and merging
  // the trace here honors TraceRecorder's no-active-spans contract.
  if (trace_ != nullptr) {
    TraceRecorder::Uninstall();
    if (!trace_->WriteChromeTrace(options_.trace_out_path)) {
      TPIIN_LOG(Warning) << "trace write failed: " << options_.trace_out_path;
    }
  }

  const ServeSummary summary = Summary();
  TPIIN_LOG(Info) << "serve drained: " << summary.requests << " request(s), "
                  << summary.ok << " ok, " << summary.degraded
                  << " degraded, " << summary.busy << " busy, "
                  << summary.errors << " error(s)";
  return summary;
}

ServeSummary Server::Summary() const {
  ServeSummary summary;
  summary.connections_accepted = connections_accepted_.Value();
  summary.connections_refused = connections_refused_.Value();
  summary.requests = requests_.Value();
  summary.ok = ok_.Value();
  summary.degraded = degraded_.Value();
  summary.busy = busy_.Value();
  summary.errors = errors_.Value();
  summary.read_errors = read_errors_.Value();
  summary.write_errors = write_errors_.Value();
  return summary;
}

MetricsSnapshot Server::Snapshot() const {
  uptime_ms_.Set(std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - started_at_)
                     .count());
  current_rss_bytes_.Set(CurrentRssBytes());
  peak_rss_bytes_.Set(PeakRssBytes());
  return metrics_.Snapshot();
}

RunReport Server::BuildStatsReport() const {
  MetricsSnapshot snapshot = Snapshot();
  RunReport report("tpiin serve");
  report.set_threads(ResolveThreadCount(options_.service.threads));
  report.set_total_seconds(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started_at_)
                               .count());

  const std::shared_ptr<const SnapshotGeneration> generation =
      registry_->Current();
  ReportSection& server = report.Section("server");
  server.Set("host", options_.host);
  server.Set("port", static_cast<uint64_t>(port_));
  server.Set("snapshot", generation->path);
  server.Set("snapshot_crc", StringPrintf("%08x", generation->crc()));
  server.Set("generation", generation->id);
  server.Set("loaded", FormatLogTimestamp(generation->loaded_unix_micros));
  server.Set("max_inflight", options_.max_inflight);
  server.Set("max_queue", options_.max_queue);

  for (const auto& [metric, section, key] : kStatsKeys) {
    const MetricsSnapshot::Entry* entry = snapshot.Find(metric);
    if (entry->kind == MetricsSnapshot::Kind::kGauge) {
      report.Section(section).Set(key, entry->gauge);
    } else {
      report.Section(section).Set(key, entry->value);
    }
  }

  // Per-verb latency percentiles of the verbs requested so far: the
  // operator's first read, derived from the same histograms attached
  // raw below.
  constexpr std::string_view kLatencyPrefix = "serve.latency_us.";
  ReportTable& latency = report.AddTable(
      "latency_us", {"verb", "count", "p50", "p90", "p99", "max"});
  for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
    if (entry.kind != MetricsSnapshot::Kind::kHistogram) continue;
    if (entry.count == 0) continue;
    if (entry.name.compare(0, kLatencyPrefix.size(), kLatencyPrefix) != 0) {
      continue;
    }
    latency.AddRow()
        .Append(entry.name.substr(kLatencyPrefix.size()))
        .Append(entry.count)
        .Append(entry.Quantile(0.50))
        .Append(entry.Quantile(0.90))
        .Append(entry.Quantile(0.99))
        .Append(entry.max);
  }

  report.AttachMetrics(std::move(snapshot));
  return report;
}

void Server::MetricsWriterLoop() {
  const auto interval =
      std::chrono::duration<double>(options_.metrics_interval_seconds);
  std::unique_lock<std::mutex> lock(metrics_writer_mu_);
  while (!metrics_writer_stop_) {
    if (metrics_writer_cv_.wait_for(
            lock, interval, [this] { return metrics_writer_stop_; })) {
      break;  // Wait() writes the final snapshot after joining us.
    }
    lock.unlock();
    const Status status =
        WriteFileAtomic(options_.metrics_out_path, BuildMetricsText());
    if (!status.ok()) {
      TPIIN_LOG(Warning) << "metrics snapshot failed: " << status.ToString();
    }
    lock.lock();
  }
}

std::string Server::BuildMetricsText() const {
  return RenderPrometheusText(Snapshot());
}

std::string Server::BuildSlowPayload() const {
  const std::vector<SlowRequest> entries = slow_ring_.Snapshot();
  std::string out = StringPrintf("{\"capacity\": %zu, \"slow\": [",
                                 slow_ring_.capacity());
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowRequest& slow = entries[i];
    if (i > 0) out += ',';
    out += "\n  {\"req\": \"" + JsonEscape(slow.request_id) + "\"";
    out += ", \"verb\": \"" + JsonEscape(slow.verb) + "\"";
    out += ", \"status\": \"" + JsonEscape(slow.status) + "\"";
    out += ", \"cache\": \"" + JsonEscape(slow.cache) + "\"";
    out += StringPrintf(
        ", \"bytes\": %llu, \"queue_us\": %llu, \"handle_us\": %llu",
        static_cast<unsigned long long>(slow.bytes),
        static_cast<unsigned long long>(slow.queue_us),
        static_cast<unsigned long long>(slow.handle_us));
    out += StringPrintf(
        ", \"detect_seconds\": %.6f, \"segment_seconds\": %.6f, "
        "\"mine_seconds\": %.6f, \"finalize_seconds\": %.6f}",
        slow.detect_seconds, slow.segment_seconds, slow.mine_seconds,
        slow.finalize_seconds);
  }
  out += entries.empty() ? "]}" : "\n]}";
  return out;
}

}  // namespace tpiin
