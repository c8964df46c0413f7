#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cast.h"

namespace bigdawg::core {
namespace {

relational::Table MakeTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  relational::Table t{Schema({Field("id", DataType::kInt64),
                              Field("v", DataType::kDouble),
                              Field("s", DataType::kString)})};
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(i), Value(rng.NextGaussian()),
                       Value("row_" + std::to_string(i % 13))});
  }
  return t;
}

void ExpectTablesEqual(const relational::Table& a, const relational::Table& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.rows()[r], b.rows()[r]) << "row " << r;
  }
}

TEST(ParallelCastTest, RoundTripPreservesOrderAndValues) {
  ThreadPool pool(4);
  relational::Table t = MakeTable(1000, 3);
  std::string wire = TableToBinaryParallel(t, &pool);
  relational::Table back = *TableFromBinaryParallel(wire, &pool);
  ExpectTablesEqual(t, back);
}

TEST(ParallelCastTest, EmptyTable) {
  ThreadPool pool(2);
  relational::Table t{Schema({Field("x", DataType::kInt64)})};
  std::string wire = TableToBinaryParallel(t, &pool);
  relational::Table back = *TableFromBinaryParallel(wire, &pool);
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_TRUE(back.schema() == t.schema());
}

TEST(ParallelCastTest, SingleRowFewerRowsThanChunks) {
  ThreadPool pool(8);
  relational::Table t = MakeTable(1, 5);
  std::string wire = TableToBinaryParallel(t, &pool, 8);
  relational::Table back = *TableFromBinaryParallel(wire, &pool);
  ExpectTablesEqual(t, back);
}

TEST(ParallelCastTest, CorruptInputRejected) {
  ThreadPool pool(2);
  relational::Table t = MakeTable(100, 7);
  std::string wire = TableToBinaryParallel(t, &pool);
  // Truncation.
  std::string truncated = wire.substr(0, wire.size() - 10);
  EXPECT_FALSE(TableFromBinaryParallel(truncated, &pool).ok());
  // Trailing garbage.
  std::string padded = wire + "junk";
  EXPECT_TRUE(TableFromBinaryParallel(padded, &pool).status().IsParseError());
  // Nonsense bytes.
  EXPECT_FALSE(TableFromBinaryParallel("nonsense", &pool).ok());
}

TEST(ParallelCastTest, HugeCountsFailBeforeSizing) {
  ThreadPool pool(2);
  // A valid one-column schema followed by the given uint32 words.
  auto frame = [](std::initializer_list<uint32_t> words) {
    BinaryWriter writer;
    writer.PutSchema(Schema({Field("v", DataType::kInt64)}));
    for (uint32_t w : words) writer.PutUint32(w);
    return writer.Release();
  };
  constexpr uint32_t kHuge = 0x7fffffff;
  // Row count of the single-stream form, then one row's value count.
  EXPECT_TRUE(TableFromBinary(frame({kHuge})).status().IsOutOfRange());
  EXPECT_TRUE(TableFromBinary(frame({1, kHuge})).status().IsOutOfRange());
  // Chunk count of the chunked form, then one 4-byte chunk's row count.
  EXPECT_TRUE(
      TableFromBinaryParallel(frame({kHuge}), &pool).status().IsOutOfRange());
  EXPECT_TRUE(TableFromBinaryParallel(frame({1, 4, kHuge}), &pool)
                  .status()
                  .IsOutOfRange());
}

class ChunkCountSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkCountSweep, RoundTripAtEveryChunking) {
  ThreadPool pool(3);
  relational::Table t = MakeTable(257, 11);  // prime-ish, uneven chunks
  std::string wire = TableToBinaryParallel(t, &pool, GetParam());
  relational::Table back = *TableFromBinaryParallel(wire, &pool);
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(back.rows()[r], t.rows()[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(Chunkings, ChunkCountSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 257, 1000));

}  // namespace
}  // namespace bigdawg::core
