#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 20000;

}  // namespace

bos::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& bosd, const std::vector<std::string>& flags) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return bos::Status::IoError("pipe failed");
  std::vector<std::string> args = {bosd, "--port=0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return bos::Status::IoError("fork failed");
  }
  if (pid == 0) {
    // The server must never outlive the benchmark, even if it crashes.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, fds[0]));

  // bosd prints "bosd: listening on 127.0.0.1:<port> (<n> shards)".
  std::string out;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kStartTimeoutMs);
  while (out.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fds[0], POLLIN, 0};
    if (left.count() <= 0 || poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return bos::Status::IoError("bosd did not start listening");
    }
    char buf[256];
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) return bos::Status::IoError("bosd exited during start-up");
    out.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = out.find("127.0.0.1:");
  if (colon == std::string::npos) {
    return bos::Status::IoError("unexpected bosd banner: " + out);
  }
  proc->port_ = static_cast<uint16_t>(
      std::strtoul(out.c_str() + colon + std::strlen("127.0.0.1:"), nullptr, 10));
  return proc;
}

ServerProcess::~ServerProcess() { (void)Stop(); }

bos::Status ServerProcess::Stop() {
  if (pid_ <= 0) return bos::Status::OK();
  kill(pid_, SIGTERM);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  close(out_fd_);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return bos::Status::IoError("bosd did not shut down cleanly");
  }
  return bos::Status::OK();
}

bos::Result<ProcSnapshot> ReadProc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/";
  ProcSnapshot snap;

  std::ifstream stat_file(dir + "stat");
  std::string stat;
  if (!std::getline(stat_file, stat)) return bos::Status::IoError("no " + dir + "stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) snap.user_s = std::strtod(field.c_str(), nullptr) / tick;
    if (i == 15) snap.sys_s = std::strtod(field.c_str(), nullptr) / tick;
  }

  std::ifstream io_file(dir + "io");
  std::string key;
  uint64_t value = 0;
  bool have_io = false;
  while (io_file >> key >> value) {
    have_io = true;
    if (key == "syscw:") snap.syscw = value;
    if (key == "write_bytes:") snap.write_bytes = value;
  }
  if (!have_io) return bos::Status::IoError("no " + dir + "io");

  std::ifstream status_file(dir + "status");
  std::string line;
  while (std::getline(status_file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      snap.hwm_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return snap;
}

}  // namespace perfbench
