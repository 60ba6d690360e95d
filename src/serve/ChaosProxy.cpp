//===- serve/ChaosProxy.cpp - Deterministic socket-chaos relay ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/ChaosProxy.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

using namespace dmp;
using namespace dmp::serve;

namespace {

uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  X ^= X >> 31;
  return X;
}

Status transient(std::string Msg) {
  return Status::transient(std::move(Msg), "serve::ChaosProxy");
}

bool sendAll(int Fd, const uint8_t *Data, size_t N) {
  size_t Sent = 0;
  while (Sent < N) {
    const ssize_t W = ::send(Fd, Data + Sent, N - Sent, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}

} // namespace

ChaosProxy::ChaosProxy(std::string ListenPath, std::string TargetPath,
                       ChaosPlan Plan)
    : ListenPath(std::move(ListenPath)), TargetPath(std::move(TargetPath)),
      Plan(Plan) {}

ChaosProxy::~ChaosProxy() { stop(); }

bool ChaosProxy::decide(const ChaosPlan &Plan, uint64_t Site, uint64_t Op,
                        double Rate) {
  if (Rate <= 0.0)
    return false;
  if (Rate >= 1.0)
    return true;
  // Pure (Seed, Site, Op) hash against the rate threshold — the
  // fault::Plan determinism model at the transport layer.
  const uint64_t H = mix64(Plan.Seed * 0x9E3779B97F4A7C15ull +
                           mix64(Site + 0x100) + mix64(Op + 0x10000));
  return double(H >> 11) / double(1ull << 53) < Rate;
}

Status ChaosProxy::start() {
  if (Running)
    return Status::invariant("chaos proxy already started",
                             "serve::ChaosProxy");
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (ListenPath.size() >= sizeof(Addr.sun_path))
    return Status::invariant(
        "socket path too long: " + std::to_string(ListenPath.size()) +
            " bytes exceeds the AF_UNIX sun_path limit of " +
            std::to_string(sizeof(Addr.sun_path) - 1) + " (" + ListenPath +
            ")",
        "serve::ChaosProxy");
  std::memcpy(Addr.sun_path, ListenPath.c_str(), ListenPath.size() + 1);

  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return transient(std::string("socket(): ") + std::strerror(errno));
  ::unlink(ListenPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    const Status S = transient(std::string("bind(") + ListenPath +
                               "): " + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  if (::listen(Fd, 16) != 0) {
    const Status S =
        transient(std::string("listen(): ") + std::strerror(errno));
    ::close(Fd);
    ::unlink(ListenPath.c_str());
    return S;
  }
  if (::pipe(StopPipe) != 0) {
    ::close(Fd);
    ::unlink(ListenPath.c_str());
    return transient(std::string("pipe(): ") + std::strerror(errno));
  }
  ListenFd = Fd;
  Running = true;
  Relay = std::thread([this] { run(); });
  return Status();
}

void ChaosProxy::stop() {
  if (!Running)
    return;
  const uint8_t Byte = 1;
  [[maybe_unused]] ssize_t N = ::write(StopPipe[1], &Byte, 1);
  Relay.join();
  Running = false;
  if (ListenFd != -1) {
    ::close(ListenFd);
    ::unlink(ListenPath.c_str());
    ListenFd = -1;
  }
  ::close(StopPipe[0]);
  ::close(StopPipe[1]);
  StopPipe[0] = StopPipe[1] = -1;
}

bool ChaosProxy::forward(int Dst, const uint8_t *Data, size_t N,
                         uint64_t Site, uint64_t &Op) {
  const uint64_t ThisOp = Op++;
  Chunks.fetch_add(1, std::memory_order_relaxed);

  if (decide(Plan, Site, ThisOp, Plan.DelayRate))
    ::usleep(Plan.DelayMs * 1000u);

  if (Plan.MaxDrops > 0 &&
      Drops.load(std::memory_order_relaxed) < Plan.MaxDrops &&
      decide(Plan, Site, ThisOp, Plan.DropRate)) {
    // Mid-frame disconnect: deliver only half the chunk, then cut the
    // link.  The receiver sees a truncated frame, the sender a reset.
    Drops.fetch_add(1, std::memory_order_relaxed);
    sendAll(Dst, Data, N / 2);
    return false;
  }

  if (decide(Plan, Site, ThisOp, Plan.ChopRate)) {
    // Short writes: forward in 1..ChopBytesMax-byte pieces so the peer's
    // decoder exercises every partial-read path.
    const size_t MaxPiece = std::max(1u, Plan.ChopBytesMax);
    size_t Off = 0;
    while (Off < N) {
      const size_t Piece =
          1 + mix64(Plan.Seed + Site * 31 + ThisOp * 131 + Off) %
                  MaxPiece;
      const size_t Len = std::min(Piece, N - Off);
      if (!sendAll(Dst, Data + Off, Len))
        return false;
      Off += Len;
    }
    return true;
  }

  return sendAll(Dst, Data, N);
}

void ChaosProxy::run() {
  struct Link {
    int Client = -1;   // accepted side
    int Upstream = -1; // connection to the real daemon
    uint64_t Site = 0; // client->upstream site; +1 is the reverse
    uint64_t OpFwd = 0;
    uint64_t OpRev = 0;
  };
  std::vector<Link> Links;
  uint64_t NextConn = 0;

  auto CloseLink = [](Link &L) {
    if (L.Client != -1)
      ::close(L.Client);
    if (L.Upstream != -1)
      ::close(L.Upstream);
    L.Client = L.Upstream = -1;
  };

  while (true) {
    std::vector<pollfd> Polls;
    Polls.push_back({StopPipe[0], POLLIN, 0});
    Polls.push_back({ListenFd, POLLIN, 0});
    for (const Link &L : Links) {
      Polls.push_back({L.Client, POLLIN, 0});
      Polls.push_back({L.Upstream, POLLIN, 0});
    }
    if (::poll(Polls.data(), Polls.size(), 1000) < 0 && errno != EINTR)
      break;

    if (Polls[0].revents & POLLIN)
      break; // stop requested

    // Only the links that existed when Polls was built have poll slots; a
    // link accepted below waits for the next round.
    const size_t Polled = Links.size();
    if (Polls[1].revents & POLLIN) {
      const int Client = ::accept(ListenFd, nullptr, nullptr);
      if (Client >= 0) {
        sockaddr_un Addr;
        std::memset(&Addr, 0, sizeof(Addr));
        Addr.sun_family = AF_UNIX;
        std::memcpy(Addr.sun_path, TargetPath.c_str(),
                    std::min(TargetPath.size() + 1, sizeof(Addr.sun_path)));
        const int Up = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (Up >= 0 && ::connect(Up, reinterpret_cast<sockaddr *>(&Addr),
                                 sizeof(Addr)) == 0) {
          Link L;
          L.Client = Client;
          L.Upstream = Up;
          L.Site = 2 * NextConn++;
          Links.push_back(L);
        } else {
          // Daemon not reachable: refuse by closing, like a dead socket.
          if (Up >= 0)
            ::close(Up);
          ::close(Client);
        }
      }
    }

    uint8_t Buf[4096];
    for (size_t I = 0; I < Polled; ++I) {
      Link &L = Links[I];
      bool Cut = false;
      for (int Dir = 0; Dir < 2 && !Cut; ++Dir) {
        if (!(Polls[2 + 2 * I + Dir].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        const int From = Dir == 0 ? L.Client : L.Upstream;
        const int To = Dir == 0 ? L.Upstream : L.Client;
        const ssize_t N = ::recv(From, Buf, sizeof(Buf), MSG_DONTWAIT);
        if (N > 0) {
          uint64_t &Op = Dir == 0 ? L.OpFwd : L.OpRev;
          if (!forward(To, Buf, static_cast<size_t>(N), L.Site + Dir, Op))
            Cut = true;
        } else if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                              errno != EINTR)) {
          Cut = true;
        }
      }
      if (Cut)
        CloseLink(L);
    }
    Links.erase(std::remove_if(Links.begin(), Links.end(),
                               [](const Link &L) { return L.Client == -1; }),
                Links.end());
  }

  for (Link &L : Links)
    CloseLink(L);
}
