// The wire side of the benchmark: cxml_serverd child processes and
// CXP/1 connections to them.
#ifndef CXBENCH_WIRE_H_
#define CXBENCH_WIRE_H_

#include <sys/types.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace cxbench {

/// One cxml_serverd child. Start returns once the server printed its
/// "listening on" line; the destructor stops it.
class ServerProcess {
 public:
  static cxml::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) so far, in MiB; 0 once stopped.
  double PeakRssMb() const;
  /// SIGTERM, then wait for the orderly shutdown (the WAL flushes);
  /// SIGKILL after `timeout_ms`. Idempotent.
  cxml::Status Stop(int timeout_ms = 20000);
  /// Everything the child printed so far.
  std::string Output() const;

 private:
  ServerProcess() = default;
  void ReadOutput(int fd);

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string output_;
  bool eof_ = false;
  std::thread reader_;
};

/// A blocking CXP/1 connection without retries: a failed call is a
/// failed operation. Send and Recv touch disjoint state, so one thread
/// may send while another receives (pipelining).
class Conn {
 public:
  static cxml::Result<Conn> Open(uint16_t port);

  Conn(Conn&&) = default;
  Conn& operator=(Conn&&) = default;

  cxml::Status Send(std::string_view payload);
  cxml::Result<std::string> Recv();
  /// Send + Recv + ParseResponse, with an ERR frame folded into the
  /// Result.
  cxml::Result<cxml::net::Response> CallOk(const cxml::net::Request& request);

 private:
  explicit Conn(cxml::net::Fd fd) : fd_(std::move(fd)) {}

  cxml::net::Fd fd_;
  std::unique_ptr<cxml::net::FrameDecoder> decoder_ =
      std::make_unique<cxml::net::FrameDecoder>();
};

}  // namespace cxbench

#endif  // CXBENCH_WIRE_H_
