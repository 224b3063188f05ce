#include "fpga/sim/fifo.h"

#include <memory>
#include <string>

#include "gtest/gtest.h"

namespace fcae {
namespace fpga {

TEST(FifoTest, PushPopOrder) {
  Fifo<int> fifo(4);
  ASSERT_TRUE(fifo.Empty());
  ASSERT_TRUE(fifo.CanPush());
  ASSERT_FALSE(fifo.CanPop());

  fifo.Push(1);
  fifo.Push(2);
  fifo.Push(3);
  ASSERT_EQ(3u, fifo.size());
  ASSERT_EQ(1, fifo.Front());
  ASSERT_EQ(1, fifo.Pop());
  ASSERT_EQ(2, fifo.Pop());
  fifo.Push(4);
  ASSERT_EQ(3, fifo.Pop());
  ASSERT_EQ(4, fifo.Pop());
  ASSERT_TRUE(fifo.Empty());
}

TEST(FifoTest, CapacityBackpressure) {
  Fifo<int> fifo(2);
  fifo.Push(1);
  fifo.Push(2);
  ASSERT_TRUE(fifo.Full());
  ASSERT_FALSE(fifo.CanPush());
  fifo.Pop();
  ASSERT_TRUE(fifo.CanPush());
}

TEST(FifoTest, HighWaterTracksPeakOccupancy) {
  Fifo<int> fifo(8);
  for (int i = 0; i < 5; i++) fifo.Push(i);
  for (int i = 0; i < 5; i++) fifo.Pop();
  fifo.Push(99);
  ASSERT_EQ(5u, fifo.HighWater());
}

TEST(FifoTest, WrapsAroundItsRing) {
  Fifo<int> fifo(3);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 10; round++) {
    while (fifo.CanPush()) fifo.Push(next_push++);
    ASSERT_TRUE(fifo.Full());
    ASSERT_EQ(next_pop, fifo.Front());
    for (int i = 0; i <= round % 3; i++) ASSERT_EQ(next_pop++, fifo.Pop());
  }
  while (fifo.CanPop()) ASSERT_EQ(next_pop++, fifo.Pop());
  ASSERT_EQ(next_push, next_pop);
  ASSERT_EQ(3u, fifo.HighWater());
}

TEST(FifoTest, PopReleasesTheEntry) {
  // Records share their decoded block; a popped record must not stay
  // alive in its ring slot.
  auto block = std::make_shared<std::string>("block");
  Fifo<std::shared_ptr<std::string>> fifo(2);
  fifo.Push(block);
  ASSERT_EQ(2, block.use_count());
  fifo.Pop();
  ASSERT_EQ(1, block.use_count());
}

TEST(FifoTest, MoveOnlyContents) {
  Fifo<std::unique_ptr<std::string>> fifo(2);
  fifo.Push(std::make_unique<std::string>("hello"));
  auto item = fifo.Pop();
  ASSERT_EQ("hello", *item);
}

}  // namespace fpga
}  // namespace fcae
