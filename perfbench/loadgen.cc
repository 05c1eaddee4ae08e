// Closed-loop load generator for `tpiin serve` (the serve_* workloads).
//
//   perfbench_bin load --port=P --requests=FILE --conns=N --seconds=T
//       --samples=FILE [--groups-key=K] [--reload-a=SNAP --reload-b=SNAP
//       --reload-every=R] [--daemon-pid=PID] [--stats-out=FILE] [--trace]
//
// FILE holds one request per line: "<class>\t<key>\t<request line>",
// where equal request lines share a key. Each of N connections takes the
// next line of the list (cyclically) and sends it only after its previous
// answer arrived. A warm-up sweep replays the list once and records each
// key's payload digest per snapshot generation; the timed phase checks
// every answer against that record. With --reload-a/b a further
// connection acts as the deployer: after every R completed reads it
// hot-reloads the other snapshot and pulls the full `groups` report.
// The warm-up then sweeps generation A, reloads B and sweeps again.
//
// The generator reads whole response lines, finds the status and digests
// the payload bytes as they are on the wire; it never parses a payload,
// except once per generation to compare the full `groups` report with
// the batch susGroup.txt digest.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

struct Request {
  int cls;
  int key;
  std::string line;
};

struct Sample {
  int cls;
  int conn;
  int64_t send_ns;
  int64_t first_ns;
  int64_t done_ns;
  bool ok;
  size_t bytes;
  std::string req_id;
};

/// One client connection speaking the NDJSON wire.
class Conn {
 public:
  explicit Conn(int port) : port_(port) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends `line` and reads one response line into `response` (a view
  /// into this connection's buffer, valid until the next call). Fills
  /// the send / first-byte / last-byte times. False on a transport
  /// failure; the connection is then re-opened by the next call.
  bool Roundtrip(const std::string& line, std::string_view* response,
                 Sample* s) {
    if (fd_ < 0 && !Open()) {
      s->send_ns = s->first_ns = s->done_ns = NowNs();
      return false;
    }
    if (consumed_ > 0) {
      // Keep any bytes past the last answer (there are none in a closed
      // loop, but the wire allows them).
      std::memmove(buf_.get(), buf_.get() + consumed_, size_ - consumed_);
      size_ -= consumed_;
      consumed_ = 0;
    }
    s->send_ns = NowNs();
    const std::string wire = line + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return Fail(s);
      sent += static_cast<size_t>(n);
    }
    s->first_ns = 0;
    size_t scanned = 0;
    while (true) {
      if (const void* nl =
              std::memchr(buf_.get() + scanned, '\n', size_ - scanned)) {
        const size_t end =
            static_cast<size_t>(static_cast<const char*>(nl) - buf_.get());
        s->done_ns = NowNs();
        if (s->first_ns == 0) s->first_ns = s->done_ns;
        *response = std::string_view(buf_.get(), end);
        consumed_ = end + 1;
        return true;
      }
      scanned = size_;
      if (capacity_ - size_ < kMinRead) Grow();
      ssize_t n = ::recv(fd_, buf_.get() + size_, capacity_ - size_, 0);
      if (n <= 0) return Fail(s);
      if (s->first_ns == 0) s->first_ns = NowNs();
      size_ += static_cast<size_t>(n);
    }
  }

 private:
  bool Open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};  // A stalled daemon fails the request, not the run.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }
  bool Fail(Sample* s) {
    s->done_ns = NowNs();
    if (s->first_ns == 0) s->first_ns = s->done_ns;
    Close();
    return false;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    size_ = 0;
    consumed_ = 0;
  }
  /// Doubles the receive buffer without initializing it: a 22 MB answer
  /// costs one copy out of the socket, not a fill and a copy.
  void Grow() {
    const size_t capacity = std::max<size_t>(2 * capacity_, 1 << 20);
    std::unique_ptr<char[]> bigger(new char[capacity]);
    if (size_ > 0) std::memcpy(bigger.get(), buf_.get(), size_);
    buf_ = std::move(bigger);
    capacity_ = capacity;
  }

  static constexpr size_t kMinRead = 1 << 16;
  int port_;
  int fd_ = -1;
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t consumed_ = 0;
};

/// The value of a flat string field ("key":"value") of a response line;
/// responses have a fixed key order and payload comes last.
std::string_view Field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":\"");
  size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  at += needle.size();
  size_t end = line.find('"', at);
  return line.substr(at, end == std::string_view::npos ? 0 : end - at);
}

/// User + system CPU seconds of process `pid` (0 when unreadable).
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0;
  // After the command name: state is field 3; utime and stime are 14, 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Digest of the payload as it is on the wire (still JSON-escaped).
uint64_t PayloadDigest(std::string_view line) {
  constexpr std::string_view kPayload = ",\"payload\":\"";
  size_t at = line.find(kPayload);
  if (at == std::string_view::npos) return 0;
  return Digest(line.substr(at + kPayload.size())) | 1;  // Never 0.
}

class Load {
 public:
  explicit Load(const Args& args) {
    port_ = static_cast<int>(args.Num("port"));
    conns_ = std::max(1, static_cast<int>(args.Num("conns", 1)));
    groups_key_ = static_cast<int>(args.Num("groups-key", -1));
    reload_paths_ = {args.Str("reload-a"), args.Str("reload-b")};
    reload_every_ = static_cast<uint64_t>(args.Num("reload-every", 0));
    trace_ = args.Num("trace", 0) != 0;
    daemon_pid_ = static_cast<int>(args.Num("daemon-pid", 0));
    stats_path_ = args.Str("stats-out");
  }

  bool ReadRequests(const std::string& path) {
    std::ifstream in(path);
    std::string row;
    while (std::getline(in, row)) {
      size_t t1 = row.find('\t');
      size_t t2 = row.find('\t', t1 + 1);
      if (t1 == std::string::npos || t2 == std::string::npos) return false;
      Request r;
      r.cls = ClassId(row.substr(0, t1));
      r.key = std::stoi(row.substr(t1 + 1, t2 - t1 - 1));
      r.line = row.substr(t2 + 1);
      max_key_ = std::max(max_key_, r.key);
      requests_.push_back(std::move(r));
    }
    digests_.assign(static_cast<size_t>(max_key_) + 1, {0, 0});
    reload_cls_ = ClassId("reload");
    groups_cls_ = ClassId("groups");
    return !requests_.empty();
  }

  bool churn() const { return reload_every_ > 0; }

  /// Replays the list once on generation `gen`, recording digests.
  double Sweep(int gen) {
    const int64_t start = NowNs();
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < conns_; ++c) {
      threads.emplace_back([&, c] {
        Conn conn(port_);
        std::string_view response;
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= requests_.size()) break;
          const Request& r = requests_[i];
          Sample s{r.cls, c, 0, 0, 0, false, 0, {}};
          if (!conn.Roundtrip(r.line, &response, &s)) {
            Fail("warmup_transport");
          } else if (Field(response, "status") != "ok") {
            Fail("warmup_" + StatusOf(response));
          } else {
            Record(r, gen, response);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  /// Hot-reloads snapshot `gen` through `conn`; true when it swapped.
  bool Reload(Conn& conn, int gen, Sample* s) {
    std::string_view response;
    if (!conn.Roundtrip("reload?path=" + reload_paths_[gen], &response, s)) {
      return false;
    }
    return Field(response, "status") == "ok" &&
           response.find("swapped: true") != std::string_view::npos;
  }

  /// The daemon's `stats` answer, appended to --stats-out.
  void SaveStats() {
    if (stats_path_.empty()) return;
    Conn conn(port_);
    std::string_view response;
    Sample s{0, 0, 0, 0, 0, false, 0, {}};
    if (!conn.Roundtrip("stats", &response, &s)) {
      Fail("stats");
      return;
    }
    std::ofstream out(stats_path_, std::ios::app);
    out << response << "\n";
  }

  void Timed(double seconds) {
    SaveStats();
    const double daemon_cpu0 = ProcessCpuSeconds(daemon_pid_);
    timed_start_ = NowNs();
    const int64_t deadline =
        timed_start_ + static_cast<int64_t>(seconds * 1e9);
    const int64_t cpu0 = ProcessCpuNs();
    std::atomic<size_t> next{0};
    std::vector<std::vector<Sample>> per_conn(conns_ + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < conns_; ++c) {
      threads.emplace_back([&, c] {
        Conn conn(port_);
        std::string_view response;
        while (NowNs() < deadline) {
          const Request& r = requests_[next.fetch_add(1) % requests_.size()];
          Sample s{r.cls, c, 0, 0, 0, false, 0, {}};
          const uint64_t epoch = epoch_.load();
          const int gen = gen_.load();
          const bool sent = conn.Roundtrip(r.line, &response, &s);
          if (!sent) Fail("transport");
          // The generation is known only when no reload overlapped the
          // request; otherwise either generation's answer is correct.
          const int expect = (epoch % 2 == 0 && epoch_.load() == epoch) ? gen : -1;
          s.ok = sent && Check(r, expect, response);
          s.bytes = sent ? response.size() : 0;
          if (trace_ && sent) s.req_id = std::string(Field(response, "req"));
          per_conn[c].push_back(std::move(s));
          reads_done_.fetch_add(1);
        }
      });
    }
    if (churn()) {
      threads.emplace_back([&] { Deployer(deadline, &per_conn[conns_]); });
    }
    for (std::thread& t : threads) t.join();
    timed_end_ = NowNs();
    gen_cpu_s_ = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
    daemon_cpu_s_ = ProcessCpuSeconds(daemon_pid_) - daemon_cpu0;
    SaveStats();
    for (auto& v : per_conn) {
      for (Sample& s : v) samples_.push_back(std::move(s));
    }
  }

  bool WriteSamples(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Sample& s : samples_) {
      std::fprintf(f, "%s\t%d\t%lld\t%lld\t%lld\t%d\t%zu\t%s\n",
                   class_names_[static_cast<size_t>(s.cls)].c_str(), s.conn,
                   static_cast<long long>(s.send_ns - timed_start_),
                   static_cast<long long>(s.first_ns - timed_start_),
                   static_cast<long long>(s.done_ns - timed_start_),
                   s.ok ? 1 : 0, s.bytes,
                   s.req_id.empty() ? "-" : s.req_id.c_str());
    }
    return std::fclose(f) == 0;
  }

  void PrintSummary(const std::vector<double>& sweeps) const {
    std::string sweep_list;
    for (double s : sweeps) {
      if (!sweep_list.empty()) sweep_list += ", ";
      sweep_list += std::to_string(s);
    }
    std::string fails;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [reason, n] : failures_) {
        if (!fails.empty()) fails += ", ";
        fails += "\"" + reason + "\": " + std::to_string(n);
      }
    }
    std::printf(
        "{\"warmup_s\": [%s], \"groups_raw\": [\"%s\", \"%s\"], "
        "\"timed_s\": %.9g, \"gen_cpu_s\": %.9g, \"daemon_cpu_s\": %.9g, "
        "\"samples\": %zu, \"failures\": {%s}}\n",
        sweep_list.c_str(), Hex(groups_raw_[0]).c_str(),
        Hex(groups_raw_[1]).c_str(),
        static_cast<double>(timed_end_ - timed_start_) / 1e9, gen_cpu_s_,
        daemon_cpu_s_, samples_.size(), fails.c_str());
  }

 private:
  int ClassId(const std::string& name) {
    for (size_t i = 0; i < class_names_.size(); ++i) {
      if (class_names_[i] == name) return static_cast<int>(i);
    }
    class_names_.push_back(name);
    return static_cast<int>(class_names_.size()) - 1;
  }

  static std::string StatusOf(std::string_view response) {
    std::string_view status = Field(response, "status");
    return status.empty() ? "malformed" : std::string(status);
  }

  void Fail(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failures_[reason];
  }

  void Record(const Request& r, int gen, std::string_view response) {
    const uint64_t digest = PayloadDigest(response);
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& slot = digests_[static_cast<size_t>(r.key)][static_cast<size_t>(gen)];
    if (slot == 0) {
      slot = digest;
    } else if (slot != digest) {
      ++failures_["warmup_nondeterministic"];
    }
    if (r.key == groups_key_ && groups_raw_[gen] == 0) {
      tpiin::Result<tpiin::Response> parsed = tpiin::ParseResponseLine(response);
      groups_raw_[gen] = parsed.ok() ? Digest(parsed->payload) : 1;
    }
  }

  /// Checks a timed-phase answer against the warm-up record for its
  /// generation (`gen` < 0: either generation).
  bool Check(const Request& r, int gen, std::string_view response) {
    if (Field(response, "status") != "ok") {
      Fail(StatusOf(response));
      return false;
    }
    const uint64_t digest = PayloadDigest(response);
    const auto& known = digests_[static_cast<size_t>(r.key)];
    const bool match = gen >= 0 ? digest == known[static_cast<size_t>(gen)]
                                : (digest == known[0] || digest == known[1]);
    if (!match) Fail("digest_mismatch");
    return match;
  }

  void Deployer(int64_t deadline, std::vector<Sample>* out) {
    Conn conn(port_);
    std::string_view response;
    for (uint64_t threshold = reload_every_;; threshold += reload_every_) {
      while (reads_done_.load() < threshold && NowNs() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (NowNs() >= deadline) break;
      const int target = 1 - gen_.load();
      Sample reload{reload_cls_, conns_, 0, 0, 0, false, 0, {}};
      epoch_.fetch_add(1);  // Odd: a reload is in flight.
      reload.ok = Reload(conn, target, &reload);
      if (reload.ok) gen_.store(target);
      epoch_.fetch_add(1);
      if (!reload.ok) Fail("reload");
      out->push_back(std::move(reload));
      Sample pull{groups_cls_, conns_, 0, 0, 0, false, 0, {}};
      const Request groups{groups_cls_, groups_key_, "groups"};
      const bool sent = conn.Roundtrip("groups", &response, &pull);
      if (!sent) Fail("transport");
      pull.ok = sent && Check(groups, gen_.load(), response);
      pull.bytes = sent ? response.size() : 0;
      if (trace_ && sent) pull.req_id = std::string(Field(response, "req"));
      out->push_back(std::move(pull));
    }
  }

 public:
  std::vector<double> Warmup() {
    std::vector<double> sweeps;
    sweeps.push_back(Sweep(0));
    if (churn()) {
      Conn conn(port_);
      Sample s{0, conns_, 0, 0, 0, false, 0, {}};
      const int64_t start = NowNs();
      if (!Reload(conn, 1, &s)) Fail("warmup_reload");
      gen_.store(1);
      sweeps.push_back(static_cast<double>(NowNs() - start) / 1e9 + Sweep(1));
    }
    return sweeps;
  }

 private:
  int port_ = 0;
  int conns_ = 1;
  int groups_key_ = -1;
  std::array<std::string, 2> reload_paths_;
  uint64_t reload_every_ = 0;
  bool trace_ = false;
  int daemon_pid_ = 0;
  std::string stats_path_;

  std::vector<Request> requests_;
  std::vector<std::string> class_names_;
  int reload_cls_ = 0;
  int groups_cls_ = 0;
  int max_key_ = 0;
  std::vector<std::array<uint64_t, 2>> digests_;
  std::array<uint64_t, 2> groups_raw_{0, 0};

  std::atomic<int> gen_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> reads_done_{0};

  mutable std::mutex mu_;
  std::map<std::string, uint64_t> failures_;

  int64_t timed_start_ = 0;
  int64_t timed_end_ = 0;
  double gen_cpu_s_ = 0;
  double daemon_cpu_s_ = 0;
  std::vector<Sample> samples_;
};

}  // namespace

int RunLoad(const Args& args) {
  Load load(args);
  if (!load.ReadRequests(args.Str("requests"))) {
    std::fprintf(stderr, "load: cannot read --requests\n");
    return 2;
  }
  std::vector<double> sweeps = load.Warmup();
  load.Timed(args.Num("seconds", 1));
  if (!load.WriteSamples(args.Str("samples"))) {
    std::fprintf(stderr, "load: cannot write --samples\n");
    return 1;
  }
  load.PrintSummary(sweeps);
  return 0;
}

}  // namespace perfbench
