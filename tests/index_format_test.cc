#include "index/index_format.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "index/index_builder.h"

namespace serenade {
namespace {

Dataset MakeData(uint64_t seed = 19) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_items = 400;
  config.num_sessions = 3000;
  config.num_days = 7;
  return GenerateDataset(config);
}

void ExpectIndexesEqual(const SessionIndex& a, const SessionIndex& b) {
  ASSERT_EQ(a.num_sessions(), b.num_sessions());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_postings(), b.num_postings());
  ASSERT_EQ(a.max_sessions_per_item(), b.max_sessions_per_item());
  for (ItemId item = 0; item < a.num_items(); ++item) {
    const auto pa = a.SessionsForItem(item);
    const auto pb = b.SessionsForItem(item);
    ASSERT_EQ(std::vector<SessionId>(pa.begin(), pa.end()),
              std::vector<SessionId>(pb.begin(), pb.end()))
        << "item " << item;
    ASSERT_FLOAT_EQ(a.Idf(item), b.Idf(item)) << "item " << item;
  }
  for (SessionId s = 0; s < a.num_sessions(); ++s) {
    ASSERT_EQ(a.SessionTimestamp(s), b.SessionTimestamp(s));
    const auto ia = a.ItemsForSession(s);
    const auto ib = b.ItemsForSession(s);
    ASSERT_EQ(std::vector<ItemId>(ia.begin(), ia.end()),
              std::vector<ItemId>(ib.begin(), ib.end()));
  }
}

TEST(IndexFormatTest, SerializeRoundTrip) {
  SessionIndex index = SessionIndex::Build(MakeData(), 50);
  const std::string bytes = SerializeIndex(index);
  auto restored = DeserializeIndex(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIndexesEqual(index, *restored);
}

TEST(IndexFormatTest, FileRoundTrip) {
  SessionIndex index = SessionIndex::Build(MakeData(), 50);
  const std::string path = testing::TempDir() + "/index.srn";
  ASSERT_TRUE(WriteIndexFile(path, index).ok());
  auto restored = ReadIndexFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIndexesEqual(index, *restored);
}

TEST(IndexFormatTest, CompressionShrinksIndex) {
  SessionIndex index = SessionIndex::Build(MakeData(), 500);
  const std::string bytes = SerializeIndex(index);
  EXPECT_LT(bytes.size(), index.MemoryBytes());
}

TEST(IndexFormatTest, EmptyIndexRoundTrip) {
  SessionIndex index = SessionIndex::Build(Dataset(), 10);
  auto restored = DeserializeIndex(SerializeIndex(index));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_sessions(), 0u);
}

TEST(IndexFormatTest, RejectsBadMagic) {
  SessionIndex index = SessionIndex::Build(MakeData(), 20);
  std::string bytes = SerializeIndex(index);
  bytes[0] = 'X';
  EXPECT_EQ(DeserializeIndex(bytes).status().code(), StatusCode::kCorruption);
}

TEST(IndexFormatTest, RejectsTruncation) {
  SessionIndex index = SessionIndex::Build(MakeData(), 20);
  const std::string bytes = SerializeIndex(index);
  for (double fraction : {0.1, 0.5, 0.9, 0.99}) {
    const std::string truncated =
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction));
    EXPECT_FALSE(DeserializeIndex(truncated).ok()) << fraction;
  }
}

TEST(IndexFormatTest, RejectsBitFlips) {
  SessionIndex index = SessionIndex::Build(MakeData(), 20);
  const std::string bytes = SerializeIndex(index);
  // Flip a byte in several positions scattered through the payload; CRC
  // or structural validation must catch every one of them.
  for (size_t position :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 10}) {
    std::string corrupted = bytes;
    corrupted[position] = static_cast<char>(corrupted[position] ^ 0x40);
    EXPECT_FALSE(DeserializeIndex(corrupted).ok()) << "position " << position;
  }
}

// Codec torture for logically corrupt but CRC-clean artifacts: each case
// breaks exactly one invariant of a valid index's raw arrays, serializes
// it (FromRaw does not validate), and expects that one rejection.
class IndexInvariantTortureTest : public ::testing::Test {
 protected:
  // Small enough to pick specific entries; m = 4 leaves some items with
  // full posting lists and some with shorter ones.
  SessionIndex::Raw ValidRaw() const {
    std::vector<Click> clicks;
    for (SessionId s = 0; s < 40; ++s) {
      clicks.push_back({s, static_cast<ItemId>(s % 5), 100u + 2 * s});
      clicks.push_back({s, static_cast<ItemId>(5 + s % 3), 101u + 2 * s});
    }
    return SessionIndex::Build(Dataset::FromClicks(clicks), 4).ToRaw();
  }

  static void ExpectRejected(SessionIndex::Raw raw,
                             const std::string& message) {
    const auto result =
        DeserializeIndex(SerializeIndex(SessionIndex::FromRaw(std::move(raw))));
    ASSERT_FALSE(result.ok()) << "expected rejection: " << message;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_NE(result.status().ToString().find(message), std::string::npos)
        << result.status().ToString();
  }
};

TEST_F(IndexInvariantTortureTest, ValidRawLoads) {
  EXPECT_TRUE(
      DeserializeIndex(SerializeIndex(SessionIndex::FromRaw(ValidRaw()))).ok());
}

TEST_F(IndexInvariantTortureTest, RejectsSessionItemOutOfRange) {
  SessionIndex::Raw raw = ValidRaw();
  // The last item of a session, so the list stays ascending.
  raw.session_items[raw.session_offsets[1] - 1] =
      static_cast<ItemId>(raw.item_idf.size());
  ExpectRejected(std::move(raw), "session item id out of range");
}

TEST_F(IndexInvariantTortureTest, RejectsUnsortedSessionItems) {
  SessionIndex::Raw raw = ValidRaw();
  std::swap(raw.session_items[0], raw.session_items[1]);
  ExpectRejected(std::move(raw), "session items not strictly ascending");
}

TEST_F(IndexInvariantTortureTest, RejectsNonMonotoneItemOffsets) {
  SessionIndex::Raw raw = ValidRaw();
  raw.item_offsets[1] = raw.item_offsets[2] + 1;
  ExpectRejected(std::move(raw), "offsets not monotone");
}

TEST_F(IndexInvariantTortureTest, RejectsNonMonotoneSessionOffsets) {
  SessionIndex::Raw raw = ValidRaw();
  raw.session_offsets[1] = raw.session_offsets[2] + 1;
  ExpectRejected(std::move(raw), "offsets not monotone");
}

TEST_F(IndexInvariantTortureTest, RejectsTimestampsDecreasingWithId) {
  SessionIndex::Raw raw = ValidRaw();
  raw.session_timestamps[10] = raw.session_timestamps[9] - 1;
  ExpectRejected(std::move(raw), "session timestamps decrease with session id");
}

TEST_F(IndexInvariantTortureTest, RejectsAscendingPostings) {
  SessionIndex::Raw raw = ValidRaw();
  ASSERT_GE(raw.item_offsets[1], 2u);
  std::swap(raw.session_lists[0], raw.session_lists[1]);
  ExpectRejected(std::move(raw), "posting list not strictly descending");
}

TEST_F(IndexInvariantTortureTest, RejectsDuplicatePosting) {
  SessionIndex::Raw raw = ValidRaw();
  raw.session_lists[1] = raw.session_lists[0];
  ExpectRejected(std::move(raw), "posting list not strictly descending");
}

TEST_F(IndexInvariantTortureTest, RejectsPostingListLongerThanM) {
  SessionIndex::Raw raw = ValidRaw();
  ASSERT_EQ(raw.item_offsets[1], raw.max_sessions_per_item);
  raw.max_sessions_per_item -= 1;
  ExpectRejected(std::move(raw),
                 "posting list longer than max_sessions_per_item");
}

TEST(IndexFormatTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadIndexFile("/nonexistent/index.srn").status().code(),
            StatusCode::kIoError);
}

TEST(IndexBuilderTest, ParallelMatchesSerial) {
  Dataset dataset = MakeData(23);
  for (size_t m : {1u, 10u, 100u, 5000u}) {
    SessionIndex serial = SessionIndex::Build(dataset, m);
    IndexBuilderOptions options;
    options.max_sessions_per_item = m;
    options.num_threads = 4;
    SessionIndex parallel = BuildIndexParallel(dataset, options);
    ExpectIndexesEqual(serial, parallel);
  }
}

TEST(IndexBuilderTest, SinglePartition) {
  Dataset dataset = MakeData(29);
  IndexBuilderOptions options;
  options.max_sessions_per_item = 50;
  options.num_threads = 2;
  options.num_partitions = 1;
  ExpectIndexesEqual(SessionIndex::Build(dataset, 50),
                     BuildIndexParallel(dataset, options));
}

TEST(IndexBuilderTest, MorePartitionsThanItems) {
  std::vector<Click> clicks = {{1, 0, 10}, {1, 1, 20}, {2, 0, 30}, {2, 1, 40}};
  Dataset dataset = Dataset::FromClicks(clicks);
  IndexBuilderOptions options;
  options.max_sessions_per_item = 5;
  options.num_threads = 4;
  options.num_partitions = 64;
  ExpectIndexesEqual(SessionIndex::Build(dataset, 5),
                     BuildIndexParallel(dataset, options));
}

TEST(IndexBuilderTest, EmptyDataset) {
  IndexBuilderOptions options;
  options.max_sessions_per_item = 5;
  SessionIndex index = BuildIndexParallel(Dataset(), options);
  EXPECT_EQ(index.num_sessions(), 0u);
  EXPECT_EQ(index.num_items(), 0u);
}

}  // namespace
}  // namespace serenade
