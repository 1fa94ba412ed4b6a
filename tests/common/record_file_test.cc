#include "common/record_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "engine/slatelog.h"
#include "gtest/gtest.h"
#include "kvstore/wal.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::TempDir;

void WriteFile(const std::string& path, BytesView bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string Hex(BytesView bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[(static_cast<unsigned char>(c) >> 4) & 0xf]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

struct ScanOutcome {
  std::vector<Bytes> payloads;
  bool clean = false;
  uint64_t clean_end = 0;
};

ScanOutcome ScanAll(const std::string& path) {
  ScanOutcome out;
  out.clean = record_file::Scan(
      path,
      [&out](BytesView payload) {
        out.payloads.emplace_back(payload);
        return true;
      },
      &out.clean_end);
  return out;
}

// Five frames of assorted sizes, including an empty payload, and the byte
// offset where each frame ends.
struct MultiFrameFile {
  std::vector<Bytes> payloads = {"alpha", "", Bytes(300, 'x'), "\x01\x02",
                                 "omega"};
  Bytes bytes;
  std::vector<size_t> ends;

  MultiFrameFile() {
    for (const Bytes& p : payloads) {
      record_file::AppendFrame(&bytes, p);
      ends.push_back(bytes.size());
    }
  }
};

TEST(RecordFileTest, EveryTruncationOffsetYieldsTheIntactPrefix) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.log";
  const MultiFrameFile file;
  for (size_t cut = 0; cut <= file.bytes.size(); ++cut) {
    WriteFile(path, BytesView(file.bytes).substr(0, cut));
    size_t intact = 0;
    while (intact < file.ends.size() && file.ends[intact] <= cut) ++intact;
    const size_t prefix_end = intact == 0 ? 0 : file.ends[intact - 1];

    const ScanOutcome got = ScanAll(path);
    ASSERT_EQ(got.payloads.size(), intact) << "cut at " << cut;
    for (size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(got.payloads[i], file.payloads[i]) << "cut at " << cut;
    }
    EXPECT_EQ(got.clean_end, prefix_end) << "cut at " << cut;
    EXPECT_EQ(got.clean, cut == prefix_end) << "cut at " << cut;
  }
}

TEST(RecordFileTest, EverySingleByteFlipStopsTheScanAtThatFrame) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.log";
  const MultiFrameFile file;
  for (size_t pos = 0; pos < file.bytes.size(); ++pos) {
    Bytes flipped = file.bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5a);
    WriteFile(path, flipped);
    size_t frame = 0;
    while (file.ends[frame] <= pos) ++frame;

    const ScanOutcome got = ScanAll(path);
    EXPECT_FALSE(got.clean) << "flip at " << pos;
    ASSERT_EQ(got.payloads.size(), frame) << "flip at " << pos;
    EXPECT_EQ(got.clean_end, frame == 0 ? 0 : file.ends[frame - 1])
        << "flip at " << pos;
  }
}

TEST(RecordFileTest, OverCapLengthStopsTheScanEvenWithAValidCrc) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.log";
  Bytes bytes;
  record_file::AppendFrame(&bytes, "first");
  const size_t first_end = bytes.size();
  record_file::AppendFrame(
      &bytes, Bytes(record_file::kMaxPayloadBytes + 1, 'z'));
  WriteFile(path, bytes);

  const ScanOutcome got = ScanAll(path);
  EXPECT_FALSE(got.clean);
  ASSERT_EQ(got.payloads.size(), 1u);
  EXPECT_EQ(got.payloads[0], "first");
  EXPECT_EQ(got.clean_end, first_end);
}

TEST(RecordFileTest, RejectedPayloadStopsTheScan) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.log";
  const MultiFrameFile file;
  WriteFile(path, file.bytes);
  int seen = 0;
  uint64_t clean_end = 0;
  EXPECT_FALSE(record_file::Scan(
      path, [&seen](BytesView) { return ++seen < 3; }, &clean_end));
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(clean_end, file.ends[1]);
}

TEST(RecordFileTest, MissingFileIsEmptyAndClean) {
  TempDir dir;
  const ScanOutcome got = ScanAll(dir.path() + "/absent.log");
  EXPECT_TRUE(got.clean);
  EXPECT_TRUE(got.payloads.empty());
  EXPECT_EQ(got.clean_end, 0u);
}

TEST(RecordFileTest, ReadSingleWantsExactlyOneIntactFrame) {
  TempDir dir;
  const std::string path = dir.path() + "/manifest";
  Bytes payload;
  EXPECT_TRUE(record_file::ReadSingle(path, &payload).IsNotFound());

  Bytes one;
  record_file::AppendFrame(&one, "cursor");
  WriteFile(path, one);
  ASSERT_OK(record_file::ReadSingle(path, &payload));
  EXPECT_EQ(payload, "cursor");

  WriteFile(path, BytesView(one).substr(0, one.size() - 1));
  EXPECT_EQ(record_file::ReadSingle(path, &payload).code(),
            StatusCode::kCorruption);
  WriteFile(path, "");
  EXPECT_EQ(record_file::ReadSingle(path, &payload).code(),
            StatusCode::kCorruption);
  Bytes two = one;
  record_file::AppendFrame(&two, "extra");
  WriteFile(path, two);
  EXPECT_EQ(record_file::ReadSingle(path, &payload).code(),
            StatusCode::kCorruption);
}

// The bytes a kvstore WAL holds for these two records, pinned so the
// on-disk format never changes and existing logs keep replaying.
constexpr char kGoldenWalHex[] =
    "e4ef2dce12000000066d757070657405736c61746507d20900005e27abea0a000000"
    "04676f6e650008000001";

std::vector<kv::Record> GoldenRecords() {
  kv::Record live;
  live.key = "muppet";
  live.value = "slate";
  live.seqno = 7;
  live.write_ts = 1234;
  kv::Record tomb;
  tomb.key = "gone";
  tomb.seqno = 8;
  tomb.tombstone = true;
  return {live, tomb};
}

TEST(RecordFileTest, FramingMatchesTheGoldenBytes) {
  Bytes framed;
  for (const kv::Record& rec : GoldenRecords()) {
    const size_t start = record_file::BeginFrame(&framed);
    kv::EncodeRecord(rec, &framed);
    record_file::SealFrame(&framed, start);
  }
  EXPECT_EQ(Hex(framed), kGoldenWalHex);

  TempDir dir;
  const std::string path = dir.path() + "/wal.log";
  kv::WalWriter wal;
  ASSERT_OK(wal.Open(path));
  ASSERT_OK(wal.Append(GoldenRecords()[0], /*sync=*/false));
  ASSERT_OK(wal.Append(GoldenRecords()[1], /*sync=*/true));
  ASSERT_OK(wal.Close());
  EXPECT_EQ(Hex(ReadFile(path)), kGoldenWalHex);
}

// fsync on a FIFO fails with EINVAL on Linux, which makes every durable
// write path's sync fail on demand. The test holds the read end open so
// opening the write end does not block.
class SyncFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fifo_ = dir_.path() + "/fifo";
    ASSERT_EQ(::mkfifo(fifo_.c_str(), 0600), 0);
    reader_ = ::open(fifo_.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(reader_, 0);
  }
  void TearDown() override {
    if (reader_ >= 0) ::close(reader_);
  }

  TempDir dir_;
  std::string fifo_;
  int reader_ = -1;
};

TEST_F(SyncFailureTest, WriterSyncReportsTheFailure) {
  record_file::Writer writer;
  ASSERT_OK(writer.Open(fifo_));
  Bytes frame;
  record_file::AppendFrame(&frame, "payload");
  ASSERT_OK(writer.Write(frame));
  ASSERT_OK(writer.Flush());
  EXPECT_EQ(writer.Sync().code(), StatusCode::kIOError);
  ASSERT_OK(writer.Close());
}

TEST_F(SyncFailureTest, WalSyncedAppendAndSyncReportTheFailure) {
  kv::WalWriter wal;
  ASSERT_OK(wal.Open(fifo_));
  ASSERT_OK(wal.Append(GoldenRecords()[0], /*sync=*/false));
  EXPECT_EQ(wal.Append(GoldenRecords()[1], /*sync=*/true).code(),
            StatusCode::kIOError);
  EXPECT_EQ(wal.Sync().code(), StatusCode::kIOError);
  ASSERT_OK(wal.Close());
}

TEST_F(SyncFailureTest, ChangelogSyncedCursorStaysPut) {
  // Every segment the changelog opens is redirected to the FIFO.
  class FifoDevice : public StdioLogDevice {
   public:
    explicit FifoDevice(std::string fifo) : fifo_(std::move(fifo)) {}
    Status Open(const std::string&) override {
      return StdioLogDevice::Open(fifo_);
    }

   private:
    std::string fifo_;
  };
  SlateChangelog::Options options;
  options.sync_every_records = 1;
  options.device_factory = [this] {
    return std::make_unique<FifoDevice>(fifo_);
  };
  SlateChangelog log(dir_.path() + "/log", 0, options);
  ASSERT_OK(log.Open());
  SlateLogRecord rec;
  rec.updater = "U";
  rec.key = "k";
  rec.value = "v";
  EXPECT_EQ(log.Append(rec).status().code(), StatusCode::kIOError);
  EXPECT_EQ(log.Sync().code(), StatusCode::kIOError);
  EXPECT_EQ(log.synced_lsn(), 0u);
  log.CrashClose();
}

TEST_F(SyncFailureTest, ManifestWriteReportsTheFailure) {
  const std::string manifest_dir = dir_.path() + "/m";
  ASSERT_EQ(::mkdir(manifest_dir.c_str(), 0700), 0);
  const std::string tmp = SlateChangelog::ManifestPath(manifest_dir, 3) +
                          ".tmp";
  ASSERT_EQ(std::rename(fifo_.c_str(), tmp.c_str()), 0);
  CheckpointManifest manifest;
  manifest.machine = 3;
  manifest.lsn = 42;
  EXPECT_EQ(SlateChangelog::WriteManifestFile(manifest_dir, manifest).code(),
            StatusCode::kIOError);
  // The failed checkpoint never became the cursor.
  CheckpointManifest read;
  ASSERT_OK(SlateChangelog::ReadManifestFile(manifest_dir, 3, &read));
  EXPECT_EQ(read.lsn, 0u);
}

}  // namespace
}  // namespace muppet
