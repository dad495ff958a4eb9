// BatchExecutor and the service batch path beneath it. The contracts
// under test:
//   * a single request through the executor is exactly the serial path,
//   * batched execution returns the same recommendations as serial,
//   * duplicate session keys in one batch apply their clicks in order,
//   * one invalid slot never fails its siblings (per-slot StatusOr).
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "serving/batch_executor.h"
#include "serving/service.h"

namespace serenade {
namespace {

class BatchExecutorTest : public testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig data_config;
    data_config.seed = 77;
    data_config.num_items = 300;
    data_config.num_sessions = 3000;
    data_config.num_days = 5;
    train_ = GenerateDataset(data_config);
    index_ = std::make_shared<SessionIndex>(SessionIndex::Build(train_, 500));
    catalog_ = GenerateCatalog(train_.num_items(), 5);
  }

  std::unique_ptr<SerenadeService> MakeService() {
    ServiceConfig config;
    config.knn.m = 500;
    config.knn.k = 100;
    auto service = SerenadeService::Create(index_, catalog_, config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  Dataset train_;
  std::shared_ptr<SessionIndex> index_;
  ItemCatalog catalog_;
};

std::vector<ItemId> Items(const std::vector<ScoredItem>& scored) {
  std::vector<ItemId> items;
  items.reserve(scored.size());
  for (const ScoredItem& item : scored) items.push_back(item.item);
  return items;
}

TEST_F(BatchExecutorTest, PassthroughMatchesSerialPath) {
  // Two identical services over the same index: one driven through the
  // executor, one called directly. Same clicks, same answers.
  auto batched_service = MakeService();
  auto serial_service = MakeService();
  BatchExecutor executor(batched_service.get());

  for (ItemId item : {3u, 4u, 5u, 17u}) {
    const RecommendRequest request{"visitor", item, true};
    auto via_executor = executor.Execute(request);
    auto direct = serial_service->HandleUpdateAndRecommend(request);
    ASSERT_TRUE(via_executor.ok()) << via_executor.status().ToString();
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Items(*via_executor), Items(*direct));
  }
  // Single requests never touch the client-batch counters.
  EXPECT_EQ(executor.batches_executed(), 0u);
}

TEST_F(BatchExecutorTest, BatchedResultsMatchSerialResults) {
  auto batched_service = MakeService();
  auto serial_service = MakeService();
  std::vector<RecommendRequest> requests;
  for (ItemId item = 1; item <= 24; ++item) {
    requests.push_back({"shopper-" + std::to_string(item % 7), item, true});
  }

  auto batched = batched_service->HandleUpdateAndRecommendBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto serial = serial_service->HandleUpdateAndRecommend(requests[i]);
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(Items(batched[i].value()), Items(*serial)) << "slot " << i;
  }
}

TEST_F(BatchExecutorTest, DuplicateKeysInOneBatchApplyInOrder) {
  auto service = MakeService();
  std::vector<RecommendRequest> requests;
  for (ItemId item : {10u, 11u, 12u, 13u}) {
    requests.push_back({"same-visitor", item, true});
  }
  auto results = service->HandleUpdateAndRecommendBatch(requests);
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  auto session = service->GetSession("same-visitor");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(*session, (EvolvingSession{10, 11, 12, 13}));
}

TEST_F(BatchExecutorTest, OneBadSlotNeverFailsSiblings) {
  auto service = MakeService();
  std::vector<RecommendRequest> requests = {
      {"ok-1", 5, true},
      {"", 6, true},                 // missing session key
      {"ok-2", kInvalidItem, true},  // missing item
      {"ok-3", 7, true},
  };
  auto results = service->HandleUpdateAndRecommendBatch(requests);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[3].ok());
  // The valid slots still updated their sessions.
  EXPECT_EQ(*service->GetSession("ok-1"), (EvolvingSession{5}));
  EXPECT_EQ(*service->GetSession("ok-3"), (EvolvingSession{7}));
}

}  // namespace
}  // namespace serenade
