// Binary serialization helpers used by the on-disk partition format.
//
// Edge records are variable-length (the interval-sequence path encoding is
// inlined into the record per §4.3 of the paper), so everything here is
// byte-vector oriented: append to a std::vector<uint8_t>, read back with a
// cursor. Varints keep small CFET node IDs at 1-2 bytes.
#ifndef GRAPPLE_SRC_SUPPORT_BYTE_IO_H_
#define GRAPPLE_SRC_SUPPORT_BYTE_IO_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace grapple {

// Unrecoverable I/O failure after retries are exhausted. The file helpers
// below report errors via bool + message; layers that cannot continue in
// place (partition store, engine) rethrow the message as IoError so the
// core facade can isolate the failing checker instead of aborting the
// whole process.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Retry policy for transient I/O failures (EINTR/EAGAIN, short writes,
// short reads, injected faults): up to `max_retries` additional attempts,
// exponential backoff starting at `backoff_base_us` with deterministic
// jitter drawn from a splitmix64 stream seeded by `jitter_seed`.
// `backoff_base_us = 0` disables sleeping (tests). Installed process-wide
// by GrappleOptions::Robustness.
struct IoRetryPolicy {
  uint32_t max_retries = 4;
  uint32_t backoff_base_us = 50;
  uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
};

void SetIoRetryPolicy(const IoRetryPolicy& policy);
IoRetryPolicy GetIoRetryPolicy();

// Process-wide count of retried I/O attempts, exported as the io_retries
// gauge by the engine.
uint64_t IoRetriesTotal();

// Appends an unsigned LEB128 varint.
void PutVarint64(std::vector<uint8_t>* out, uint64_t value);

// Appends a zigzag-encoded signed varint.
void PutVarintSigned64(std::vector<uint8_t>* out, int64_t value);

// Appends a fixed-width little-endian u32/u64.
void PutFixed32(std::vector<uint8_t>* out, uint32_t value);
void PutFixed64(std::vector<uint8_t>* out, uint64_t value);

// 64-bit FNV-1a over `size` bytes, continuing from `hash`. The checksum of
// the on-disk formats (partition blocks, checkpoint manifests, profiles).
inline constexpr uint64_t kFnv1aOffset64 = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(const uint8_t* data, size_t size, uint64_t hash = kFnv1aOffset64);

// Sequential reader over a byte span. All Get* methods check bounds and
// report failure via ok(); after a failed read the cursor is poisoned.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
  bool AtEnd() const { return pos_ >= size_; }

  uint64_t GetVarint64();
  int64_t GetVarintSigned64();
  uint32_t GetFixed32();
  uint64_t GetFixed64();
  // Copies `n` raw bytes; returns false (and poisons) on underrun.
  bool GetRaw(uint8_t* out, size_t n);
  // Advances without copying.
  bool Skip(size_t n);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Whole-file helpers (binary). Return false on I/O errors; when `error` is
// non-null it receives a message naming the operation and the file.
// Transient failures retry per the installed IoRetryPolicy; all of them
// consult the fault-injection shim once per attempt.
bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                    std::string* error = nullptr);
bool AppendFileBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                     std::string* error = nullptr);
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes,
                   std::string* error = nullptr);
// Truncates (or extends with zeros) to exactly `size` bytes. Recovery uses
// this to drop partition bytes written past the last checkpoint manifest.
bool TruncateFile(const std::string& path, uint64_t size, std::string* error = nullptr);
// fsync() the file contents (not the containing directory).
bool SyncFile(const std::string& path, std::string* error = nullptr);
// rename(2); atomic within a filesystem. The manifest publish step.
bool RenameFile(const std::string& from, const std::string& to, std::string* error = nullptr);
bool FileExists(const std::string& path);
int64_t FileSizeBytes(const std::string& path);
bool RemoveFile(const std::string& path);

// Creates a unique scratch directory under the system temp dir and removes it
// (recursively) on destruction. Used for partition spill files in tests and
// benchmarks.
class TempDir {
 public:
  // `tag` becomes part of the directory name for debuggability.
  explicit TempDir(const std::string& tag = "grapple");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_BYTE_IO_H_
