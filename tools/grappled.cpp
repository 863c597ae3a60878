// grappled: the long-lived multi-tenant analysis daemon (DESIGN.md §15).
//
// Serves POST /check (subject IR as the body, tenant/priority/checkers as
// query parameters) plus the live introspection pages (/healthz /statusz
// /metricsz /tracez /profilez) on one loopback port. Requests pass
// admission control (bounded, tenant-fair), a checker-slot arbiter, and a
// session cache that keeps hot subjects' phase-1 alias state resident —
// see src/service/service.h for the protocol and fairness contracts.
//
//   $ grappled --port 0 --port-file /tmp/grappled.port &
//   $ grapple-client --port $(cat /tmp/grappled.port) --tenant ci
//       --fields reports subject.grap
//
// Defaults come from ServiceOptions::FromEnv(): GRAPPLE_SERVICE_PORT,
// GRAPPLE_MAX_RESIDENT_SESSIONS and GRAPPLE_ADMISSION_QUEUE, plus the
// GRAPPLE_* option knobs (ApplyEnvOverrides, src/core/grapple.h) on the
// session template; flags override. The session template is validated at
// startup, as each session will see it (with its own work dir).
// SIGTERM/SIGINT trigger a graceful shutdown: new requests get 503, queued
// requests are failed, in-flight checks finish, session work dirs and the
// daemon's work root are removed, and the process exits 0. Exit codes:
// 0 clean shutdown, 1 startup failure, 2 usage or invalid session options.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/report.h"
#include "src/service/service.h"
#include "src/support/byte_io.h"

namespace {

// Self-pipe for signal-safe shutdown: the handler writes one byte, main
// blocks reading it.
int g_shutdown_pipe[2] = {-1, -1};

void OnSignal(int /*signo*/) {
  char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file path] [--work-root dir]\n"
               "          [--max-sessions N] [--admission N] [--slots N] [--workers N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  grapple::ServiceOptions options = grapple::ServiceOptions::FromEnv();
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    auto flag_value = [&](const char* flag, const char** value) {
      if (std::strcmp(argv[i], flag) != 0) {
        return false;
      }
      if (i + 1 >= argc) {
        *value = nullptr;
        return true;
      }
      *value = argv[++i];
      return true;
    };
    const char* value = nullptr;
    if (flag_value("--port", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.port = std::atoi(value);
    } else if (flag_value("--port-file", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      port_file = value;
    } else if (flag_value("--work-root", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.work_root = value;
    } else if (flag_value("--max-sessions", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.max_resident_sessions = static_cast<size_t>(std::atoll(value));
    } else if (flag_value("--admission", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.admission_capacity = static_cast<size_t>(std::atoll(value));
    } else if (flag_value("--slots", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.checker_slots = static_cast<size_t>(std::atoll(value));
    } else if (flag_value("--workers", &value)) {
      if (value == nullptr) return Usage(argv[0]);
      options.worker_threads = static_cast<size_t>(std::atoll(value));
    } else {
      return Usage(argv[0]);
    }
  }

  // Every session gets its own work dir under the work root, so validate
  // the template with one filled in.
  grapple::GrappleOptions session = options.session;
  session.work_dir = "session-work-dir";
  std::vector<std::string> option_errors = session.Validate();
  if (!option_errors.empty()) {
    for (const auto& error : option_errors) {
      std::fprintf(stderr, "grappled: invalid option: %s\n", error.c_str());
    }
    return 2;
  }

  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "grappled: pipe failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  // A client hanging up mid-response must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  grapple::GrappleService service(options);
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "grappled: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "grappled: listening on 127.0.0.1:%d work_root=%s\n", service.port(),
               service.work_root().c_str());
  if (!port_file.empty()) {
    // Written after the listener is live, so `cat port-file` in a script
    // always yields a connectable port.
    if (!grapple::obs::WriteTextFile(port_file, std::to_string(service.port()) + "\n")) {
      std::fprintf(stderr, "grappled: cannot write port file %s\n", port_file.c_str());
      service.Shutdown();
      return 1;
    }
  }

  // Block until SIGTERM/SIGINT.
  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "grappled: shutting down\n");
  service.Shutdown();
  if (!port_file.empty()) {
    grapple::RemoveFile(port_file);
  }
  std::fprintf(stderr, "grappled: bye\n");
  return 0;
}
