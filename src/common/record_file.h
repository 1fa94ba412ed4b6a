// One record framing for every append-only file in the system:
//
//   [u32 crc32(payload)][u32 len][payload]   (fixed32 little-endian)
//
// The kvstore WAL, the slate changelog segments and checkpoint manifest, and
// the bulk slate logger all write and read this format through this module;
// only what a caller does after a bad frame differs (see DESIGN.md, "Record
// files"). The wire frame (net/frame.h) and SSTable blocks use formats of
// their own.
//
// Nothing here takes a lock: each file's owner serializes its calls under
// its own mutex, at its own lock level.
#ifndef MUPPET_COMMON_RECORD_FILE_H_
#define MUPPET_COMMON_RECORD_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace muppet {
namespace record_file {

inline constexpr size_t kHeaderBytes = 8;
// Frames claiming a longer payload are treated as corrupt (a garbage
// length must not turn into a huge allocation).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

// In-place framing: BeginFrame reserves the header at the end of *out and
// returns the frame's offset; the caller appends the payload directly
// after it, and SealFrame fills in the header. No payload copy is made.
size_t BeginFrame(Bytes* out);
void SealFrame(Bytes* out, size_t frame_start);

// Append one frame holding `payload` to *out.
void AppendFrame(Bytes* out, BytesView payload);

// Calls `fn` with each intact frame's payload of the file at `path`, in
// order. Stops at the first short header, over-cap length, short payload,
// CRC mismatch, or payload `fn` rejects (returns false). Returns true when
// the scan reached a clean end of file (a missing file is empty and
// clean), false when it stopped at a bad frame. `clean_end`, when
// non-null, receives the byte offset just past the last intact frame.
bool Scan(const std::string& path, const std::function<bool(BytesView)>& fn,
          uint64_t* clean_end = nullptr);

// Read a file that holds exactly one frame (a manifest). NotFound when the
// file is missing; Corruption when the frame is bad or trailed by bytes.
Status ReadSingle(const std::string& path, Bytes* payload);

// Append-side file handle. Holds no lock (the owner's mutex guards it).
class Writer {
 public:
  Writer() = default;
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Open for append (creating the file), or truncate it first.
  Status Open(const std::string& path, bool truncate = false);
  bool is_open() const { return file_ != nullptr; }

  // Buffered write of already-framed bytes.
  Status Write(BytesView frames);
  // Hand buffered bytes to the OS (no durability).
  Status Flush();
  // Flush, then fsync. IOError when either fails: the bytes may not be
  // durable, and the caller must not advance its synced cursor.
  Status Sync();
  // Release the file. Buffered bytes go to the OS; nothing is fsynced.
  Status Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace record_file
}  // namespace muppet

#endif  // MUPPET_COMMON_RECORD_FILE_H_
