#include "src/support/byte_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/support/event_hook.h"
#include "src/support/fault_injection.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

namespace grapple {

void PutVarint64(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void PutVarintSigned64(std::vector<uint8_t>* out, int64_t value) {
  uint64_t zigzag = (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
  PutVarint64(out, zigzag);
}

void PutFixed32(std::vector<uint8_t>* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void PutFixed64(std::vector<uint8_t>* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

uint64_t Fnv1a64(const uint8_t* data, size_t size, uint64_t hash) {
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t ByteReader::GetVarint64() {
  uint64_t result = 0;
  int shift = 0;
  while (ok_) {
    if (pos_ >= size_ || shift > 63) {
      ok_ = false;
      return 0;
    }
    uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return result;
    }
    shift += 7;
  }
  return 0;
}

int64_t ByteReader::GetVarintSigned64() {
  uint64_t zigzag = GetVarint64();
  return static_cast<int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
}

uint32_t ByteReader::GetFixed32() {
  if (!ok_ || size_ - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return value;
}

uint64_t ByteReader::GetFixed64() {
  if (!ok_ || size_ - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return value;
}

bool ByteReader::GetRaw(uint8_t* out, size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::Skip(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  pos_ += n;
  return true;
}

namespace {

std::mutex g_policy_mutex;
IoRetryPolicy g_policy;  // guarded by g_policy_mutex
std::atomic<uint64_t> g_io_retries{0};
// Stream position for jitter draws; combined with the policy seed so
// backoff spreading is deterministic per process given a fixed seed.
std::atomic<uint64_t> g_jitter_draws{0};

std::string ErrnoText(int err) { return std::system_category().message(err); }

bool SetError(std::string* error, const char* op, const std::string& path,
              const std::string& detail) {
  if (error != nullptr) {
    *error = std::string(op) + " " + path + ": " + detail;
  }
  return false;
}

void BackoffSleep(const IoRetryPolicy& policy, uint32_t retry_index) {
  if (policy.backoff_base_us == 0) {
    return;
  }
  uint32_t shift = retry_index < 10 ? retry_index : 10;
  uint64_t base = static_cast<uint64_t>(policy.backoff_base_us) << shift;
  Rng rng(policy.jitter_seed + g_jitter_draws.fetch_add(1, std::memory_order_relaxed));
  uint64_t jitter = rng.Below(static_cast<uint64_t>(policy.backoff_base_us) + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(base + jitter));
}

// Bumps the retry counter and drops a flight-recorder event. `op` must have
// static storage duration (all call sites pass literals).
void NoteIoRetry(uint32_t attempt, const char* op) {
  g_io_retries.fetch_add(1, std::memory_order_relaxed);
  evt::Emit(evt::kIoRetry, attempt, reinterpret_cast<uint64_t>(op));
}

// Opens with EINTR retry. Returns -1 and sets *error on failure.
int OpenRetrying(const std::string& path, int flags, const char* op, std::string* error) {
  IoRetryPolicy policy = GetIoRetryPolicy();
  for (uint32_t retry = 0;; ++retry) {
    int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    if (fd >= 0) {
      return fd;
    }
    if (errno != EINTR || retry >= policy.max_retries) {
      SetError(error, op, path, "open failed: " + ErrnoText(errno));
      return -1;
    }
    NoteIoRetry(retry + 1, op);
    BackoffSleep(policy, retry + 1);
  }
}

// Writes all of `data` to fd, retrying transient conditions (EINTR, EAGAIN,
// short writes, injected faults) with bounded exponential backoff. One
// fault-shim consultation per attempt, so `fail@write#N` is absorbed by a
// retry while `fail@write#N+` exhausts the budget and surfaces.
bool WriteAllFd(int fd, const uint8_t* data, size_t size, const std::string& path, const char* op,
                std::string* error) {
  IoRetryPolicy policy = GetIoRetryPolicy();
  size_t done = 0;
  uint32_t retries = 0;
  while (done < size) {
    size_t want = size - done;
    bool injected_fail = false;
    bool torn = false;
    if (fault::Enabled()) {
      fault::Action action = fault::OnIo(fault::Op::kWrite, path);
      switch (action.kind) {
        case fault::Action::Kind::kFail:
          injected_fail = true;
          break;
        case fault::Action::Kind::kShortWrite:
          if (action.arg == 0) {
            injected_fail = true;
          } else if (action.arg < want) {
            want = static_cast<size_t>(action.arg);
          }
          break;
        case fault::Action::Kind::kTorn:
          want = want > 1 ? want / 2 : want;
          torn = true;
          break;
        default:
          break;
      }
    }
    ssize_t n;
    if (injected_fail) {
      n = -1;
      errno = EINTR;
    } else {
      n = ::write(fd, data + done, want);
    }
    if (torn) {
      ::fsync(fd);
      // Torn write = simulated power cut mid-write; spill the flight
      // recorder so the post-mortem shows what the process was doing.
      evt::Emit(evt::kCrashExit, 0, reinterpret_cast<uint64_t>("torn_write"));
      evt::RunCrashFlushHook();
      _exit(fault::kCrashExitCode);
    }
    if (n > 0) {
      done += static_cast<size_t>(n);
    }
    if (done >= size) {
      break;
    }
    // Any attempt that left bytes unwritten consumes a retry: a short write
    // (n >= 0) or a transient errno.
    bool transient = n >= 0 || errno == EINTR || errno == EAGAIN;
    if (!transient) {
      return SetError(error, op, path,
                      "write failed after " + std::to_string(done) + "/" + std::to_string(size) +
                          " bytes: " + ErrnoText(errno));
    }
    if (retries >= policy.max_retries) {
      return SetError(error, op, path,
                      "transient write failures exhausted " + std::to_string(policy.max_retries) +
                          " retries (" + std::to_string(done) + "/" + std::to_string(size) +
                          " bytes written)");
    }
    ++retries;
    NoteIoRetry(retries, op);
    BackoffSleep(policy, retries);
  }
  return true;
}

}  // namespace

void SetIoRetryPolicy(const IoRetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(g_policy_mutex);
  g_policy = policy;
}

IoRetryPolicy GetIoRetryPolicy() {
  std::lock_guard<std::mutex> lock(g_policy_mutex);
  return g_policy;
}

uint64_t IoRetriesTotal() { return g_io_retries.load(std::memory_order_relaxed); }

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                    std::string* error) {
  int fd = OpenRetrying(path, O_WRONLY | O_CREAT | O_TRUNC, "write", error);
  if (fd < 0) {
    return false;
  }
  bool ok = WriteAllFd(fd, bytes.data(), bytes.size(), path, "write", error);
  ::close(fd);
  return ok;
}

bool AppendFileBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                     std::string* error) {
  int fd = OpenRetrying(path, O_WRONLY | O_CREAT | O_APPEND, "append", error);
  if (fd < 0) {
    return false;
  }
  bool ok = WriteAllFd(fd, bytes.data(), bytes.size(), path, "append", error);
  ::close(fd);
  return ok;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes, std::string* error) {
  int fd = OpenRetrying(path, O_RDONLY, "read", error);
  if (fd < 0) {
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    SetError(error, "read", path, "fstat failed: " + ErrnoText(errno));
    ::close(fd);
    return false;
  }
  bytes->resize(static_cast<size_t>(st.st_size));
  IoRetryPolicy policy = GetIoRetryPolicy();
  size_t done = 0;
  uint32_t retries = 0;
  bool flip_pending = false;
  uint64_t flip_index = 0;
  bool ok = true;
  while (done < bytes->size()) {
    bool injected_fail = false;
    if (fault::Enabled()) {
      fault::Action action = fault::OnIo(fault::Op::kRead, path);
      if (action.kind == fault::Action::Kind::kFail) {
        injected_fail = true;
      } else if (action.kind == fault::Action::Kind::kFlipBit) {
        flip_pending = true;
        flip_index = action.arg;
      }
    }
    ssize_t n;
    if (injected_fail) {
      n = -1;
      errno = EINTR;
    } else {
      n = ::read(fd, bytes->data() + done, bytes->size() - done);
    }
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    // n == 0 (file shrank mid-read) and transient errors both land here.
    bool transient = n == 0 || errno == EINTR || errno == EAGAIN;
    if (!transient) {
      ok = SetError(error, "read", path, "read failed: " + ErrnoText(errno));
      break;
    }
    if (retries >= policy.max_retries) {
      ok = SetError(error, "read", path,
                    "transient read failures exhausted " + std::to_string(policy.max_retries) +
                        " retries (" + std::to_string(done) + "/" +
                        std::to_string(bytes->size()) + " bytes read)");
      break;
    }
    ++retries;
    NoteIoRetry(retries, "read");
    BackoffSleep(policy, retries);
  }
  ::close(fd);
  if (ok && flip_pending && !bytes->empty()) {
    (*bytes)[static_cast<size_t>(flip_index % bytes->size())] ^= 0x01;
  }
  return ok;
}

bool TruncateFile(const std::string& path, uint64_t size, std::string* error) {
  IoRetryPolicy policy = GetIoRetryPolicy();
  for (uint32_t retry = 0;; ++retry) {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) == 0) {
      return true;
    }
    if (errno != EINTR || retry >= policy.max_retries) {
      return SetError(error, "truncate", path,
                      "truncate to " + std::to_string(size) + " failed: " + ErrnoText(errno));
    }
    NoteIoRetry(retry + 1, "truncate");
    BackoffSleep(policy, retry + 1);
  }
}

bool SyncFile(const std::string& path, std::string* error) {
  int fd = OpenRetrying(path, O_RDONLY, "fsync", error);
  if (fd < 0) {
    return false;
  }
  IoRetryPolicy policy = GetIoRetryPolicy();
  bool ok = true;
  for (uint32_t retry = 0;; ++retry) {
    bool injected_fail = false;
    if (fault::Enabled() &&
        fault::OnIo(fault::Op::kFsync, path).kind == fault::Action::Kind::kFail) {
      injected_fail = true;
    }
    int rc;
    if (injected_fail) {
      rc = -1;
      errno = EINTR;
    } else {
      rc = ::fsync(fd);
    }
    if (rc == 0) {
      break;
    }
    if (errno != EINTR || retry >= policy.max_retries) {
      ok = SetError(error, "fsync", path, "fsync failed: " + ErrnoText(errno));
      break;
    }
    NoteIoRetry(retry + 1, "fsync");
    BackoffSleep(policy, retry + 1);
  }
  ::close(fd);
  return ok;
}

bool RenameFile(const std::string& from, const std::string& to, std::string* error) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return SetError(error, "rename", from, "rename to " + to + " failed: " + ErrnoText(errno));
  }
  return true;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

int64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? -1 : static_cast<int64_t>(size);
}

bool RemoveFile(const std::string& path) {
  std::error_code ec;
  return std::filesystem::remove(path, ec);
}

TempDir::TempDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  uint64_t id = counter.fetch_add(1);
  std::error_code ec;
  auto base = std::filesystem::temp_directory_path(ec);
  GRAPPLE_CHECK(!ec) << "no temp directory available";
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string name = tag + "-" + std::to_string(::getpid()) + "-" + std::to_string(id) + "-" +
                       std::to_string(attempt);
    auto candidate = base / name;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = candidate.string();
      return;
    }
  }
  GRAPPLE_LOG(FATAL) << "failed to create temp dir for tag " << tag;
}

TempDir::~TempDir() {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

}  // namespace grapple
