#include "common.hpp"

#include <cstdio>
#include <exception>

#include "common/net.hpp"

namespace perfbench {

LaunchResult launch_ranks(
    int world,
    const std::function<int(int rank, std::uint16_t port, int listen_fd)>&
        body) {
  int listen_fd = dlcomp::net::tcp_listen("127.0.0.1", 0, world);
  const std::uint16_t port = dlcomp::net::bound_port(listen_fd);
  std::fflush(stdout);
  std::fflush(stderr);

  LaunchResult result;
  result.exit_codes.assign(static_cast<std::size_t>(world), -1);
  result.peak_rss_mb.assign(static_cast<std::size_t>(world), 0.0);
  std::vector<pid_t> pids(static_cast<std::size_t>(world), -1);
  result.fork_s = now_s();
  for (int r = 0; r < world; ++r) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed for rank %d\n", r);
      break;
    }
    if (pid == 0) {
      int code = 1;
      try {
        int inherited = listen_fd;
        if (r != 0) dlcomp::net::close_fd(inherited);
        code = body(r, port, r == 0 ? inherited : -1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: error: %s\n", r, e.what());
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(code);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }
  dlcomp::net::close_fd(listen_fd);

  for (int r = 0; r < world; ++r) {
    const pid_t pid = pids[static_cast<std::size_t>(r)];
    if (pid < 0) continue;
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) < 0) continue;
    result.peak_rss_mb[static_cast<std::size_t>(r)] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
    result.exit_codes[static_cast<std::size_t>(r)] =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return result;
}

}  // namespace perfbench
