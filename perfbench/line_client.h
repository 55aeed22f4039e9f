// A blocking line client of the query service's newline-framed
// protocol (service/protocol.h), used by the benchmark's socket clients
// and its self-test.
#ifndef PERFBENCH_LINE_CLIENT_H_
#define PERFBENCH_LINE_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

namespace perfbench {

/// A blocking line client of the service protocol.
class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Call(const std::string& line, std::string* reply) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LINE_CLIENT_H_
