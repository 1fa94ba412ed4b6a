#include "kvstore/wal.h"

#include <filesystem>

namespace muppet {
namespace kv {

Status WalWriter::Open(const std::string& path) {
  MutexLock lock(mutex_);
  MUPPET_RETURN_IF_ERROR(file_.Open(path));
  path_ = path;
  return Status::OK();
}

Status WalWriter::Append(const Record& rec, bool sync) {
  Bytes frame;
  const size_t start = record_file::BeginFrame(&frame);
  EncodeRecord(rec, &frame);
  record_file::SealFrame(&frame, start);

  MutexLock lock(mutex_);
  MUPPET_RETURN_IF_ERROR(file_.Write(frame));
  if (sync) return file_.Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  MutexLock lock(mutex_);
  return file_.Sync();
}

Status WalWriter::Close() {
  MutexLock lock(mutex_);
  return file_.Close();
}

Status WalWriter::CloseAndRemove() {
  MUPPET_RETURN_IF_ERROR(Close());
  std::error_code ec;
  std::filesystem::remove(path_, ec);
  if (ec) return Status::IOError("wal: remove " + path_ + ": " + ec.message());
  return Status::OK();
}

Status ReplayWal(const std::string& path, std::vector<Record>* records,
                 bool* truncated_tail) {
  records->clear();
  // A torn or corrupt frame ends the replay: everything before it is the
  // log's intact prefix (a torn tail is normal after a crash).
  const bool clean = record_file::Scan(path, [records](BytesView payload) {
    Record rec;
    const char* p = payload.data();
    if (!DecodeRecord(&p, p + payload.size(), &rec).ok()) return false;
    records->push_back(std::move(rec));
    return true;
  });
  if (truncated_tail != nullptr) *truncated_tail = !clean;
  return Status::OK();
}

}  // namespace kv
}  // namespace muppet
