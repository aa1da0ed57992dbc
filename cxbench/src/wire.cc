#include "wire.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/strings.h"

extern char** environ;

namespace cxbench {

using cxml::Result;
using cxml::Status;

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) return cxml::status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  int rc = posix_spawn(&server->pid_, binary.c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    server->pid_ = -1;
    return cxml::status::Internal(
        cxml::StrCat("cannot start ", binary, ": ", std::strerror(rc)));
  }
  server->reader_ = std::thread([s = server.get(), fd = fds[0]] {
    s->ReadOutput(fd);
  });
  std::unique_lock<std::mutex> lock(server->mu_);
  bool ready = server->cv_.wait_for(lock, std::chrono::seconds(60), [&] {
    return server->port_ != 0 || server->eof_;
  });
  if (!ready || server->port_ == 0) {
    std::string output = server->output_;
    lock.unlock();
    server->Stop(2000);
    return cxml::status::Internal(
        cxml::StrCat("server did not start: ", output));
  }
  return server;
}

void ServerProcess::ReadOutput(int fd) {
  char buffer[4096];
  std::string line;
  for (;;) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    std::lock_guard<std::mutex> lock(mu_);
    if (output_.size() < (1u << 20)) output_.append(buffer, n);
    for (ssize_t i = 0; i < n; ++i) {
      if (buffer[i] != '\n') {
        line += buffer[i];
        continue;
      }
      constexpr std::string_view kListening = "listening on ";
      if (port_ == 0 && line.compare(0, kListening.size(), kListening) == 0) {
        size_t colon = line.rfind(':');
        if (colon != std::string::npos) {
          port_ = static_cast<uint16_t>(
              std::strtoul(line.c_str() + colon + 1, nullptr, 10));
          cv_.notify_all();
        }
      }
      line.clear();
    }
  }
  close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  eof_ = true;
  cv_.notify_all();
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0;
}

Status ServerProcess::Stop(int timeout_ms) {
  Status result = Status::Ok();
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      pid_t done = waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        result = cxml::status::Internal("server ignored SIGTERM");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (result.ok() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      result = cxml::status::Internal("server exited uncleanly");
    }
    pid_ = -1;
  }
  if (reader_.joinable()) reader_.join();
  return result;
}

std::string ServerProcess::Output() const {
  std::lock_guard<std::mutex> lock(mu_);
  return output_;
}

Result<Conn> Conn::Open(uint16_t port) {
  CXML_ASSIGN_OR_RETURN(cxml::net::Fd fd,
                        cxml::net::ConnectTcp("127.0.0.1", port));
  CXML_RETURN_IF_ERROR(cxml::net::SetNoDelay(fd));
  return Conn(std::move(fd));
}

Status Conn::Send(std::string_view payload) {
  return cxml::net::SendAll(fd_, cxml::net::EncodeFrame(payload));
}

Result<std::string> Conn::Recv() {
  std::string payload;
  while (!decoder_->Next(&payload)) {
    char buffer[64 * 1024];
    CXML_ASSIGN_OR_RETURN(size_t received,
                          cxml::net::RecvSome(fd_, buffer, sizeof(buffer)));
    if (received == 0) {
      return cxml::status::Internal("server closed the connection");
    }
    CXML_RETURN_IF_ERROR(
        decoder_->Feed(std::string_view(buffer, received)));
  }
  return payload;
}

Result<cxml::net::Response> Conn::CallOk(const cxml::net::Request& request) {
  CXML_RETURN_IF_ERROR(Send(cxml::net::RenderRequest(request)));
  CXML_ASSIGN_OR_RETURN(std::string payload, Recv());
  CXML_ASSIGN_OR_RETURN(cxml::net::Response response,
                        cxml::net::ParseResponse(payload));
  if (!response.ok()) return response.status;
  return response;
}

}  // namespace cxbench
