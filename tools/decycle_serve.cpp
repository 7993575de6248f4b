/// \file decycle_serve.cpp
/// \brief The multi-tenant detection daemon over an AF_UNIX socket.
///
/// Serves the serve::Server request grammar (protocol.hpp) on a local
/// stream socket with length-prefixed frames. One poll loop on the main
/// thread owns the listener and every connection: a readable connection gets
/// one recv into its FrameReader, and every complete payload goes through
/// Server::submit. Replies are framed back on the same socket without ever
/// blocking: what the socket does not take at once waits in a per-connection
/// queue that the poll loop flushes, and a client is not read from while
/// its queue is non-empty. A recv error drops the connection; EOF stops
/// reading it, and it is dropped once its replies are out. A garbled frame
/// gets one final ERROR bad_frame reply and the connection is closed — the
/// length-prefix desync is unrecoverable by design. The daemon runs
/// workers + 1 threads whatever the number of clients.
///
///   decycle_serve --socket=/tmp/decycle.sock --workers=8
///   echo -n '5 stats' | nc -U /tmp/decycle.sock   # (nc appends the \n)
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --socket=PATH     AF_UNIX socket path (required; unlinked on start/exit)
///   --workers=N       server worker threads (default 4)
///   --queue-capacity=N   admission queue bound (default 1024)
///   --tenant-cap=N    per-tenant in-flight cap (default 64)
///   --cache=N         verdict-cache capacity, 0 disables (default 65536)
///   --stats-out=FILE  write the JSONL stats dump here at shutdown
///   --enable-stall    accept the test-only stall verb (never in production)
///
/// Shutdown: a `shutdown` request (or SIGINT/SIGTERM) drains admitted work,
/// dumps stats JSONL (to --stats-out and stderr), and exits 0.
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_signal_stop{false};

void on_signal(int) { g_signal_stop.store(true, std::memory_order_release); }

/// Queued reply bytes beyond which a client counts as not reading its
/// replies and is cut off.
constexpr std::size_t kMaxPendingBytes = std::size_t{16} << 20;

/// One connection. Replies come from the poll thread (inline verbs) and
/// from worker threads, and none of them may block on a client that does
/// not read: send_frame writes what the socket takes at once and queues the
/// rest, which the poll loop flushes once the socket turns writable.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void send_frame(const std::string& payload) {
    std::lock_guard lock(mutex_);
    if (pending_.size() > kMaxPendingBytes) {
      cut_off_locked();
      return;
    }
    pending_ += decycle::serve::encode_frame(payload);
    flush_locked();
  }

  /// Sends what the socket takes now; true while reply bytes stay queued.
  bool flush() {
    std::lock_guard lock(mutex_);
    flush_locked();
    return !pending_.empty();
  }

 private:
  void flush_locked() {
    while (!pending_.empty()) {
      const ssize_t n =
          ::send(fd_, pending_.data(), pending_.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        pending_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      cut_off_locked();  // the peer went away; replies to the void are fine
      return;
    }
  }

  void cut_off_locked() {
    pending_.clear();
    ::shutdown(fd_, SHUT_RDWR);
  }

  int fd_;
  std::mutex mutex_;
  std::string pending_;
};

struct Client {
  std::shared_ptr<Connection> conn;
  decycle::serve::FrameReader reader;
  bool reading = true;  ///< false after EOF: kept only until its replies are out
};

/// One recv on a readable client; submits every complete frame. False when
/// the client is done: a recv error or a garbled frame. EOF stops reading.
bool serve_readable(decycle::serve::Server& server, Client& client) {
  char buf[4096];
  const ssize_t n = ::recv(client.conn->fd(), buf, sizeof(buf), 0);
  if (n < 0) return false;
  if (n == 0) {
    client.reading = false;
    return true;
  }
  client.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  for (;;) {
    std::string payload;
    const auto status = client.reader.next(payload);
    if (status == decycle::serve::FrameReader::Status::kNeedMore) return true;
    if (status == decycle::serve::FrameReader::Status::kError) {
      client.conn->send_frame(decycle::serve::format_error(decycle::serve::ErrorCode::kBadFrame,
                                                           client.reader.error()));
      ::shutdown(client.conn->fd(), SHUT_RDWR);
      return false;
    }
    // Replies may arrive from worker threads after the client was dropped;
    // the shared_ptr keeps the connection alive until the last lands.
    server.submit(std::move(payload),
                  [conn = client.conn](std::string reply) { conn->send_frame(reply); });
  }
}

/// One poll round of a client; false once it can be dropped.
bool serve_client(decycle::serve::Server& server, Client& client, short revents) {
  if (client.reading) {
    return (revents & (POLLIN | POLLHUP | POLLERR)) == 0 || serve_readable(server, client);
  }
  return (revents & (POLLHUP | POLLERR)) == 0 &&
         (client.conn.use_count() > 1 || client.conn->flush());
}

int run(const decycle::util::Args& args) {
  using namespace decycle;

  const std::string socket_path = args.get_string("socket", "");
  DECYCLE_CHECK_MSG(!socket_path.empty(), "decycle_serve requires --socket=PATH");
  serve::ServerOptions options;
  options.workers = args.get_u64("workers", options.workers);
  options.queue_capacity = args.get_u64("queue-capacity", options.queue_capacity);
  options.tenant_inflight_cap = args.get_u64("tenant-cap", options.tenant_inflight_cap);
  options.verdict_cache_capacity = args.get_u64("cache", options.verdict_cache_capacity);
  options.enable_stall = args.get_bool("enable-stall", false);
  const std::string stats_out = args.get_string("stats-out", "");
  args.reject_unknown();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DECYCLE_CHECK_MSG(socket_path.size() < sizeof(addr.sun_path),
                    "--socket path too long for sockaddr_un");
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DECYCLE_CHECK_MSG(listen_fd >= 0, "socket() failed");
  ::unlink(socket_path.c_str());
  DECYCLE_CHECK_MSG(
      ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind() failed on " + socket_path);
  DECYCLE_CHECK_MSG(::listen(listen_fd, 64) == 0, "listen() failed");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  serve::Server server(options);
  server.start();
  std::cerr << "decycle_serve: listening on " << socket_path << " workers=" << options.workers
            << " queue=" << options.queue_capacity << "\n";

  std::vector<Client> clients;
  std::vector<pollfd> fds;
  while (!g_signal_stop.load(std::memory_order_acquire) && !server.shutdown_requested()) {
    fds.assign(1, pollfd{listen_fd, POLLIN, 0});
    for (const Client& c : clients) {
      // A client is not read from while replies to it are queued, so one
      // that does not read cannot grow the queue without bound.
      const bool backlog = c.conn->flush();
      const short events = backlog ? POLLOUT : c.reading ? POLLIN : 0;
      fds.push_back(pollfd{c.conn->fd(), events, 0});
    }
    if (::poll(fds.data(), fds.size(), 200) < 0) continue;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (!serve_client(server, clients[i], fds[i + 1].revents)) continue;
      if (kept != i) clients[kept] = std::move(clients[i]);
      ++kept;
    }
    clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(kept), clients.end());
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        clients.push_back(Client{std::make_shared<Connection>(fd), decycle::serve::FrameReader()});
      }
    }
  }

  // Admitted work drains before the connections close, so its replies land.
  ::close(listen_fd);
  server.stop();
  clients.clear();

  const std::string stats = server.stats_jsonl();
  if (!stats_out.empty()) {
    std::ofstream out(stats_out, std::ios::binary);
    DECYCLE_CHECK_MSG(out.good(), "cannot open --stats-out file: " + stats_out);
    out << stats;
  }
  std::cerr << stats;
  ::unlink(socket_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace decycle;
  try {
    return run(util::Args(argc, argv));
  } catch (const util::CheckError& e) {
    std::cerr << "decycle_serve: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "decycle_serve: " << e.what() << "\n";
    return 3;
  }
}
