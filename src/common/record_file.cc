#include "common/record_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/hash.h"

namespace muppet {
namespace record_file {

size_t BeginFrame(Bytes* out) {
  const size_t start = out->size();
  out->append(kHeaderBytes, '\0');
  return start;
}

void SealFrame(Bytes* out, size_t frame_start) {
  const size_t payload_start = frame_start + kHeaderBytes;
  const BytesView payload(out->data() + payload_start,
                          out->size() - payload_start);
  Bytes header;
  PutFixed32(&header, Crc32(payload));
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  out->replace(frame_start, kHeaderBytes, header);
}

void AppendFrame(Bytes* out, BytesView payload) {
  const size_t start = BeginFrame(out);
  out->append(payload);
  SealFrame(out, start);
}

bool Scan(const std::string& path, const std::function<bool(BytesView)>& fn,
          uint64_t* clean_end) {
  if (clean_end != nullptr) *clean_end = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return true;  // a missing file is an empty one
  char header[kHeaderBytes];
  Bytes payload;
  uint64_t offset = 0;
  bool clean = true;
  while (true) {
    const size_t got = std::fread(header, 1, kHeaderBytes, f);
    if (got == 0) break;  // clean end of file
    if (got < kHeaderBytes) {
      clean = false;
      break;
    }
    const uint32_t crc = DecodeFixed32(header);
    const uint32_t len = DecodeFixed32(header + 4);
    if (len > kMaxPayloadBytes) {
      clean = false;
      break;
    }
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len ||
        Crc32(payload) != crc || !fn(payload)) {
      clean = false;
      break;
    }
    offset += kHeaderBytes + len;
    if (clean_end != nullptr) *clean_end = offset;
  }
  std::fclose(f);
  return clean;
}

Status ReadSingle(const std::string& path, Bytes* payload) {
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("record file: no " + path);
  }
  int frames = 0;
  const bool clean = Scan(path, [&](BytesView p) {
    payload->assign(p);
    return ++frames == 1;
  });
  if (!clean || frames != 1) {
    return Status::Corruption("record file: " + path + " is not one frame");
  }
  return Status::OK();
}

Writer::~Writer() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Writer::Open(const std::string& path, bool truncate) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("record file: " + path_ +
                                      " already open");
  }
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    return Status::IOError("record file: open " + path + ": " +
                           std::strerror(errno));
  }
  path_ = path;
  return Status::OK();
}

Status Writer::Write(BytesView frames) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("record file: closed");
  }
  if (std::fwrite(frames.data(), 1, frames.size(), file_) != frames.size()) {
    return Status::IOError("record file: short write to " + path_);
  }
  return Status::OK();
}

Status Writer::Flush() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("record file: closed");
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("record file: flush " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status Writer::Sync() {
  MUPPET_RETURN_IF_ERROR(Flush());
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError("record file: fsync " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status Writer::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError("record file: close " + path_);
  return Status::OK();
}

}  // namespace record_file
}  // namespace muppet
