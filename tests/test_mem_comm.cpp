// Memory subsystem (tracker, allocator RAII, OOM, cross-step workspace, ring
// pools, staging) and the functional collectives (byte-exact movement,
// reductions).

#include <gtest/gtest.h>

#include "common/asan.h"
#include "common/check.h"

#include "baselines/fastermoe.h"
#include "comm/all_to_all.h"
#include "comm/collectives.h"
#include "comm/p2p.h"
#include "common/units.h"
#include "core/moe_layer.h"
#include "mem/buffer_pool.h"
#include "mem/device_allocator.h"
#include "mem/host_staging.h"
#include "runtime/trainer.h"
#include "step_graphs.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

#include <cstring>
#include <map>

namespace mpipe {
namespace {

using mem::Category;

TEST(MemoryTracker, PeaksTrackConcurrentTotals) {
  mem::MemoryTracker t;
  t.allocate(Category::kActivation, 100);
  t.allocate(Category::kTempBuffer, 50);
  EXPECT_EQ(t.peak_total(), 150u);
  t.release(Category::kActivation, 100);
  t.allocate(Category::kTempBuffer, 60);
  // Peak of the sum (150) != sum of category peaks (100 + 110).
  EXPECT_EQ(t.peak_total(), 150u);
  EXPECT_EQ(t.peak(Category::kTempBuffer), 110u);
  EXPECT_EQ(t.current_total(), 110u);
}

TEST(MemoryTracker, UnderflowThrows) {
  mem::MemoryTracker t;
  t.allocate(Category::kComm, 10);
  EXPECT_THROW(t.release(Category::kComm, 20), CheckError);
  EXPECT_THROW(t.release(Category::kActivation, 1), CheckError);
}

TEST(MemoryTracker, ResetPeaksKeepsCurrent) {
  mem::MemoryTracker t;
  t.allocate(Category::kActivation, 100);
  t.release(Category::kActivation, 60);
  t.reset_peaks();
  EXPECT_EQ(t.peak(Category::kActivation), 40u);
  EXPECT_EQ(t.current(Category::kActivation), 40u);
}

TEST(DeviceAllocator, RaiiReleasesOnDestruction) {
  mem::DeviceAllocator alloc(0);
  {
    auto a = alloc.allocate(Category::kActivation, 100);
    EXPECT_EQ(alloc.tracker().current_total(), 100u);
    auto moved = std::move(a);
    EXPECT_EQ(alloc.tracker().current_total(), 100u);
  }
  EXPECT_EQ(alloc.tracker().current_total(), 0u);
  EXPECT_EQ(alloc.tracker().peak_total(), 100u);
}

TEST(DeviceAllocator, CapacityEnforced) {
  mem::DeviceAllocator alloc(0, 1000);
  auto a = alloc.allocate(Category::kActivation, 800);
  EXPECT_THROW(alloc.allocate(Category::kActivation, 300),
               mem::OutOfMemoryError);
  a.release();
  EXPECT_NO_THROW(alloc.allocate(Category::kActivation, 300));
}

TEST(DeviceAllocator, VirtualTensorsAccountWithoutStorage) {
  mem::DeviceAllocator alloc(0);
  auto t = alloc.alloc_tensor(Shape{1024, 1024}, Category::kActivation,
                              /*materialize=*/false);
  EXPECT_FALSE(t.tensor.defined());
  EXPECT_EQ(alloc.tracker().current_total(), 4u * 1024 * 1024);
}

// ---- cross-step workspace ---------------------------------------------------

bool all_zero(const Tensor& t) {
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (p[i] != 0.0f) return false;
  }
  return true;
}

TEST(DeviceAllocator, WorkspaceReusesStorageAcrossSteps) {
  mem::DeviceAllocator alloc(0);
  alloc.begin_step();
  const float* storage = nullptr;
  {
    auto t = alloc.alloc_tensor(Shape{64, 32}, Category::kActivation);
    t.tensor.fill(3.0f);
    storage = t.tensor.data();
  }
  alloc.begin_step();
  auto again = alloc.alloc_tensor(Shape{64, 32}, Category::kActivation);
  EXPECT_EQ(again.tensor.data(), storage);
  EXPECT_TRUE(all_zero(again.tensor));  // reused storage comes back zeroed
  EXPECT_EQ(alloc.workspace_slots(), 1u);
}

TEST(DeviceAllocator, WorkspaceSettlesUnderJitteredSizes) {
  // 100 -> 125 rows grows the slot once; after that every size whose 2n
  // covers the capacity keeps the same storage.
  mem::DeviceAllocator alloc(0);
  const float* storage = nullptr;
  for (std::int64_t rows : {100, 125, 100, 125, 90}) {
    alloc.begin_step();
    auto t = alloc.alloc_tensor(Shape{rows, 8}, Category::kActivation);
    if (rows == 125 && storage == nullptr) storage = t.tensor.data();
    if (storage != nullptr) {
      EXPECT_EQ(t.tensor.data(), storage) << rows;
    }
    EXPECT_TRUE(all_zero(t.tensor));
    t.tensor.fill(1.0f);
  }
  // A much smaller tensor (capacity above 2n) replaces the slot's storage
  // by 2n floats: the new storage is reused by 20 rows (n = 2 * 80) and
  // again by 10 rows, which the 125-row storage could not be.
  const float* shrunk = nullptr;
  for (std::int64_t rows : {10, 20, 10}) {
    alloc.begin_step();
    auto t = alloc.alloc_tensor(Shape{rows, 8}, Category::kActivation);
    if (shrunk == nullptr) shrunk = t.tensor.data();
    EXPECT_EQ(t.tensor.data(), shrunk) << rows;
    EXPECT_TRUE(all_zero(t.tensor));
    t.tensor.fill(1.0f);
  }
  EXPECT_EQ(alloc.workspace_slots(), 1u);
}

TEST(DeviceAllocator, WorkspaceNeverRecyclesHeldStorage) {
  mem::DeviceAllocator alloc(0);
  alloc.begin_step();
  // T_O: the caller keeps the tensor, the accounting record is released.
  Tensor held = alloc.alloc_tensor(Shape{16, 8}, Category::kActivation).tensor;
  held.fill(7.0f);
  alloc.begin_step();
  auto next = alloc.alloc_tensor(Shape{16, 8}, Category::kActivation);
  EXPECT_NE(next.tensor.data(), held.data());
  EXPECT_TRUE(all_zero(next.tensor));
  next.tensor.fill(1.0f);
  const float* p = held.data();
  for (std::int64_t i = 0; i < held.numel(); ++i) ASSERT_EQ(p[i], 7.0f);
}

#ifdef MPIPE_HAS_ASAN
// Idle workspace storage is not freed between steps, so ASan poisons it:
// a stale pointer into last step's buffer must still fault.
TEST(DeviceAllocatorDeathTest, AsanFlagsStaleWorkspacePointer) {
  mem::DeviceAllocator alloc(0);
  alloc.begin_step();
  const float* stale =
      alloc.alloc_tensor(Shape{32, 8}, Category::kActivation).tensor.data();
  alloc.begin_step();
  EXPECT_DEATH(
      {
        volatile float v = stale[3];
        (void)v;
      },
      "use-after-poison");
}
#endif

TEST(DeviceAllocator, WorkspaceLeavesAccountingUnchanged) {
  // A step of fp32 and bf16-accounted activations, a released temp and an
  // accounting-only temp. The expected figures are those of fresh storage
  // per tensor: rows * (16 * 4 + 64 * 2) activation bytes and the 64-col
  // fp32 temp's rows * 256 as the temp peak.
  struct Expected {
    std::int64_t rows;
    std::uint64_t activation, temp;
  };
  mem::DeviceAllocator alloc(0);
  const Expected steps[] = {{40, 7680, 10240},
                            {50, 9600, 12800},
                            {40, 7680, 10240},
                            {45, 8640, 11520}};
  for (const Expected& e : steps) {
    alloc.begin_step();
    {
      auto x = alloc.alloc_tensor(Shape{e.rows, 16}, Category::kActivation);
      auto y = alloc.alloc_tensor(Shape{e.rows, 64}, Category::kActivation,
                                  true, DType::kBF16);
      {
        auto tmp =
            alloc.alloc_tensor(Shape{e.rows, 16}, Category::kTempBuffer);
      }
      auto virt = alloc.alloc_tensor(Shape{e.rows, 64}, Category::kTempBuffer,
                                     /*materialize=*/false);
      EXPECT_EQ(alloc.tracker().current(Category::kActivation), e.activation);
      EXPECT_EQ(alloc.tracker().current(Category::kTempBuffer), e.temp);
      EXPECT_EQ(alloc.tracker().current_total(), e.activation + e.temp);
    }
    EXPECT_EQ(alloc.tracker().peak(Category::kActivation), e.activation);
    EXPECT_EQ(alloc.tracker().peak(Category::kTempBuffer), e.temp);
    EXPECT_EQ(alloc.tracker().peak_total(), e.activation + e.temp);
    EXPECT_EQ(alloc.tracker().current_total(), 0u);
  }
  EXPECT_EQ(alloc.workspace_slots(), 3u);  // materialized tensors per step
}

TEST(DeviceAllocator, WorkspaceSlotsStayAtOneStepOfMoELayerAllocations) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o;
  o.d_model = 8;
  o.d_hidden = 16;
  o.num_experts = 4;
  o.num_partitions = 2;
  o.memory_reuse = true;
  o.strategy = core::ReuseStrategy::kS4;
  core::MoELayer layer(cluster, o);
  runtime::TrainerOptions topt;
  topt.workload.d_model = 8;
  topt.workload.tokens_per_device = 32;
  topt.workload.num_devices = 2;
  topt.workload.batch_jitter = 0.25;
  topt.load_calibration = false;  // hermetic: no cwd-dependent curves
  runtime::Trainer trainer(layer, topt);
  // One step materializes T_O, the T_DI/T_M/T_DO rings (2 + 1 + 2 slots),
  // dX, d_ys (one slot per partition) and the d_T_DO/d_T_DI rings (2 + 2);
  // the d_T_M ring is accounting-only.
  const std::size_t per_step = 1 + 2 + 1 + 2 + 1 + 2 + 2 + 2;
  for (int i = 0; i < 200; ++i) {
    trainer.train_step();
    for (int d = 0; d < layer.num_devices(); ++d) {
      ASSERT_EQ(layer.allocator(d).workspace_slots(), per_step)
          << "step " << i << " device " << d;
    }
  }
}

TEST(DeviceAllocator, WorkspaceSlotsStayAtOneStepOfFasterMoEAllocations) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  baselines::FasterMoEOptions o;
  o.d_model = 8;
  o.d_hidden = 16;
  o.num_experts = 4;
  baselines::FasterMoELayer layer(cluster, o);
  Rng rng(5);
  for (std::int64_t tokens : {24, 30, 20, 28, 24}) {
    std::vector<Tensor> x, dy;
    for (int d = 0; d < layer.num_devices(); ++d) {
      x.push_back(random_tokens(tokens, o.d_model, rng));
      dy.push_back(random_tokens(tokens, o.d_model, rng));
    }
    layer.forward(x);
    layer.backward(dy);
    // T_O, T_DI, T_M, T_DO and dX; the backward gradient buffers are
    // untracked.
    for (int d = 0; d < layer.num_devices(); ++d) {
      EXPECT_EQ(layer.allocator(d).workspace_slots(), 5u);
    }
  }
}

TEST(BufferPool, SlotAliasingFollowsDepth) {
  mem::DeviceAllocator alloc(0);
  mem::BufferPool pool(alloc, "tdi", Shape{8, 4}, 2, Category::kActivation);
  EXPECT_TRUE(pool.aliases(0, 2));
  EXPECT_TRUE(pool.aliases(1, 3));
  EXPECT_FALSE(pool.aliases(0, 1));
  pool.slot(0).fill(7.0f);
  EXPECT_FLOAT_EQ(pool.slot(2).at(0, 0), 7.0f);  // same physical slot
  EXPECT_FLOAT_EQ(pool.slot(1).at(0, 0), 0.0f);
  EXPECT_EQ(pool.bytes(), 2u * 8 * 4 * 4);
}

TEST(BufferPool, AccountingOnlyPoolRefusesSlotAccess) {
  mem::DeviceAllocator alloc(0);
  mem::BufferPool pool(alloc, "d_tm", Shape{8, 4}, 1, Category::kTempBuffer,
                       /*materialize=*/false);
  EXPECT_EQ(alloc.tracker().current(Category::kTempBuffer), 8u * 4 * 4);
  EXPECT_THROW(pool.slot(0), CheckError);
}

TEST(HostStaging, RoundTripIsByteExact) {
  mem::HostStaging staging;
  Rng rng(4);
  Tensor t(Shape{5, 3});
  init_normal(t, rng, 1.0f);
  staging.store(1, "tdi:p0", t);
  EXPECT_TRUE(staging.contains(1, "tdi:p0"));
  EXPECT_FALSE(staging.contains(0, "tdi:p0"));
  Tensor back = staging.load(1, "tdi:p0");
  EXPECT_FLOAT_EQ(max_abs_diff(t, back), 0.0f);
  staging.drop(1, "tdi:p0");
  EXPECT_THROW(staging.load(1, "tdi:p0"), CheckError);
  EXPECT_EQ(staging.bytes_stored(), 0u);
}

TEST(HostStaging, CollisionThrowsUnlessOverwriteAllowed) {
  mem::HostStaging staging;
  staging.store(0, "k", Tensor(Shape{10}));
  // A silent overwrite used to mask double-stash bugs; a collision is now
  // loud unless the caller says replacement is deliberate.
  EXPECT_THROW(staging.store(0, "k", Tensor(Shape{20})), CheckError);
  EXPECT_EQ(staging.bytes_stored(), 40u);  // original entry untouched
  staging.store(0, "k", Tensor(Shape{20}), /*allow_overwrite=*/true);
  EXPECT_EQ(staging.bytes_stored(), 80u);  // byte accounting follows
  // Distinct keys and devices never collide.
  staging.store(0, "k2", Tensor(Shape{5}));
  staging.store(1, "k", Tensor(Shape{5}));
  EXPECT_EQ(staging.entries(), 3u);
  staging.clear();
  EXPECT_EQ(staging.entries(), 0u);
}

TEST(HostStaging, TakeHandsOverTheEntryWithoutCopying) {
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8}) {
    mem::HostStaging staging;
    Rng rng(5);
    Tensor buf(Shape{8, 6});
    init_normal(buf, rng, 1.0f);
    // The offload path stores from a row view: only its rows are copied.
    staging.store(0, "tdi:p0", buf.row_view(2, 7), false, dtype);
    staging.store(1, "tm:p0", buf, false, dtype);
    const std::uint64_t whole = quantized_bytes(8, 6, dtype);
    EXPECT_EQ(staging.bytes_stored(), quantized_bytes(5, 6, dtype) + whole);
    const Tensor loaded = staging.load(0, "tdi:p0");

    const Tensor taken = staging.take(0, "tdi:p0");
    ASSERT_EQ(taken.shape(), (Shape{5, 6}));
    EXPECT_EQ(std::memcmp(taken.data(), loaded.data(),
                          static_cast<std::size_t>(taken.nbytes())),
              0)
        << to_string(dtype);
    Tensor expected = buf.slice_rows(2, 7);
    round_through_dtype(expected.data(), 5, 6, dtype);
    EXPECT_EQ(std::memcmp(taken.data(), expected.data(),
                          static_cast<std::size_t>(taken.nbytes())),
              0)
        << to_string(dtype);
    EXPECT_EQ(staging.bytes_stored(), whole);
    EXPECT_EQ(staging.entries(), 1u);
    EXPECT_FALSE(staging.contains(0, "tdi:p0"));
    EXPECT_THROW(staging.take(0, "tdi:p0"), CheckError);
    EXPECT_THROW(staging.load(0, "tdi:p0"), CheckError);

    // The collision rule of store is unchanged: a taken key is free again,
    // a live one is not.
    staging.store(0, "tdi:p0", buf, false, dtype);
    EXPECT_THROW(staging.store(0, "tdi:p0", buf, false, dtype), CheckError);
    EXPECT_THROW(staging.store(1, "tm:p0", buf, false, dtype), CheckError);
    EXPECT_EQ(staging.bytes_stored(), 2 * whole);
  }
}

// ---- segment access declarations --------------------------------------------

/// Per buffer, how many declared or copied ranges cover each byte.
using ByteCounts = std::map<const void*, std::vector<int>>;

void count_bytes(ByteCounts& counts, const sim::BufferAccess& a,
                 std::int64_t buffer_bytes) {
  auto& bytes = counts[a.id];
  bytes.resize(static_cast<std::size_t>(buffer_bytes), 0);
  const std::int64_t end = std::min(a.end, buffer_bytes);
  for (std::int64_t b = a.begin; b < end; ++b) {
    ++bytes[static_cast<std::size_t>(b)];
  }
}

TEST(CommSegments, DeclarationsCoverEveryTouchedByteAndAreExactWhenDisjoint) {
  // Random segment tables over four source and four destination buffers:
  // per-token, contiguous blocks, gapped blocks, and blocks whose source
  // rows overlap (one row sent twice). The declared reads/writes must
  // cover every byte the copy touches, name no other buffer, and equal the
  // touched union on every buffer whose ranges are pairwise disjoint.
  constexpr int kBuffers = 4;
  constexpr std::int64_t kRows = 24;
  constexpr std::int64_t kCols = 3;
  const std::int64_t buffer_bytes = kRows * kCols * 4;
  std::vector<Tensor> src, dst;
  for (int d = 0; d < kBuffers; ++d) {
    src.emplace_back(Shape{kRows, kCols});
    dst.emplace_back(Shape{kRows, kCols});
  }
  Rng rng(11);
  int exact_buffers = 0;
  int superset_buffers = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int mode = trial % 4;  // 0 per-token, 1 block, 2 gapped, 3 overlap
    std::vector<comm::RowSegment> segs;
    std::vector<std::int64_t> src_cursor(kBuffers, 0);
    for (int d = 0; d < kBuffers; ++d) {
      std::vector<std::int64_t> rows(static_cast<std::size_t>(kRows));
      for (std::int64_t r = 0; r < kRows; ++r) {
        rows[static_cast<std::size_t>(r)] = r;
      }
      if (mode == 0) {
        // One row per segment, destination rows in random order.
        for (std::int64_t r = kRows - 1; r > 0; --r) {
          std::swap(rows[static_cast<std::size_t>(r)],
                    rows[rng.uniform_index(static_cast<std::uint64_t>(r + 1))]);
        }
        const std::int64_t used = static_cast<std::int64_t>(
            rng.uniform_index(static_cast<std::uint64_t>(kRows + 1)));
        for (std::int64_t i = 0; i < used; ++i) {
          const int s = static_cast<int>(rng.uniform_index(kBuffers));
          if (src_cursor[static_cast<std::size_t>(s)] >= kRows) continue;
          segs.push_back({s, &src[static_cast<std::size_t>(s)],
                          src_cursor[static_cast<std::size_t>(s)]++, d,
                          &dst[static_cast<std::size_t>(d)],
                          rows[static_cast<std::size_t>(i)], 1});
        }
        continue;
      }
      std::int64_t row = 0;
      while (row < kRows) {
        const std::int64_t len = std::min<std::int64_t>(
            kRows - row,
            static_cast<std::int64_t>(rng.uniform_index(6)));  // 0 = empty
        const int s = static_cast<int>(rng.uniform_index(kBuffers));
        std::int64_t& cursor = src_cursor[static_cast<std::size_t>(s)];
        if (mode == 3) cursor = std::max<std::int64_t>(0, cursor - 1);
        const bool skip = mode == 2 && rng.uniform() < 0.3;
        if (!skip && cursor + len <= kRows) {
          segs.push_back({s, &src[static_cast<std::size_t>(s)], cursor, d,
                          &dst[static_cast<std::size_t>(d)], row, len});
          cursor += len;
        }
        if (mode == 2 && rng.uniform() < 0.3) ++cursor;
        row += std::max<std::int64_t>(len, 1);
      }
    }
    for (std::size_t i = segs.size(); i > 1; --i) {  // any table order
      std::swap(segs[i - 1], segs[rng.uniform_index(i)]);
    }

    sim::Op op;
    comm::declare_segment_accesses(op, segs);
    ByteCounts touched_reads, touched_writes, declared_reads, declared_writes;
    for (const comm::RowSegment& seg : segs) {
      if (seg.rows == 0) continue;
      count_bytes(touched_reads,
                  sim::access_rows(*seg.src, seg.src_row, seg.rows),
                  buffer_bytes);
      count_bytes(touched_writes,
                  sim::access_rows(*seg.dst, seg.dst_row, seg.rows),
                  buffer_bytes);
    }
    for (const auto& a : op.reads) count_bytes(declared_reads, a, buffer_bytes);
    for (const auto& a : op.writes) {
      count_bytes(declared_writes, a, buffer_bytes);
    }
    for (auto [touched, declared] :
         {std::pair{&touched_reads, &declared_reads},
          std::pair{&touched_writes, &declared_writes}}) {
      ASSERT_EQ(touched->size(), declared->size()) << "trial " << trial;
      for (const auto& [id, bytes] : *touched) {
        ASSERT_TRUE(declared->count(id)) << "trial " << trial;
        const std::vector<int>& decl = declared->at(id);
        bool disjoint = true;
        for (std::size_t b = 0; b < bytes.size(); ++b) {
          ASSERT_TRUE(bytes[b] == 0 || decl[b] > 0)
              << "trial " << trial << " byte " << b << " touched, undeclared";
          disjoint = disjoint && bytes[b] <= 1;
        }
        if (!disjoint) {
          ++superset_buffers;
          continue;
        }
        ++exact_buffers;
        for (std::size_t b = 0; b < bytes.size(); ++b) {
          ASSERT_EQ(bytes[b] > 0, decl[b] > 0)
              << "trial " << trial << " byte " << b << " declared, untouched";
        }
      }
    }
  }
  EXPECT_GT(exact_buffers, 0);
  EXPECT_GT(superset_buffers, 0);
}

TEST(CommSegments, MoELayerAllToAllsDeclareAtMostTwoRangesPerDevice) {
  // S1, n = 8: dispatch and combine move one segment per token, but each
  // AllToAll touches one contiguous run per buffer, so it declares one
  // read and one write range per participating device.
  constexpr int kDevices = 4;
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, kDevices);
  core::MoELayer layer(
      cluster, core::small_layer_options(8, core::ReuseStrategy::kS1));
  std::vector<Tensor> inputs, dys;
  core::random_step_inputs(kDevices, 256, 16, 3, inputs, dys);
  const auto graphs = core::MoELayerTestAccess::build(layer, inputs, dys);
  int alltoalls = 0;
  for (const sim::OpGraph* graph : {&graphs.forward, &graphs.backward}) {
    for (const sim::Op& op : graph->ops()) {
      if (op.category != sim::OpCategory::kAllToAll || !op.fn) continue;
      ++alltoalls;
      EXPECT_LE(op.reads.size() + op.writes.size(), 2u * kDevices)
          << op.label;
    }
  }
  EXPECT_EQ(alltoalls, 2 * 8 * 2);  // S and R forward, S' and R' backward
}

// ---- collectives -----------------------------------------------------------

TEST(CommAllToAll, SegmentsMoveBytesExactly) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Rng rng(1);
  Tensor src0(Shape{4, 2}), src1(Shape{4, 2});
  init_normal(src0, rng, 1.0f);
  init_normal(src1, rng, 1.0f);
  Tensor dst0(Shape{4, 2}), dst1(Shape{4, 2});

  std::vector<comm::RowSegment> segs;
  // Device 0 keeps rows 0-1, sends rows 2-3 to device 1; device 1 mirrors.
  segs.push_back({0, &src0, 0, 0, &dst0, 0, 2});
  segs.push_back({0, &src0, 2, 1, &dst1, 0, 2});
  segs.push_back({1, &src1, 0, 0, &dst0, 2, 2});
  segs.push_back({1, &src1, 2, 1, &dst1, 2, 2});
  EXPECT_EQ(comm::max_bytes_sent(segs), 2u * 2 * 4);

  sim::OpGraph g;
  comm::alltoall(g, world, segs, "a2a", {});
  cluster.run(g);
  EXPECT_FLOAT_EQ(max_abs_diff(dst0.slice_rows(0, 2), src0.slice_rows(0, 2)),
                  0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(dst1.slice_rows(0, 2), src0.slice_rows(2, 4)),
                  0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(dst0.slice_rows(2, 4), src1.slice_rows(0, 2)),
                  0.0f);
}

TEST(CommAllToAll, MaxBytesSentExcludesSelfSegments) {
  Tensor src(Shape{8, 4}), dst(Shape{8, 4});
  std::vector<comm::RowSegment> segs;
  // Local copies (src_device == dst_device) are free regardless of size.
  segs.push_back({0, &src, 0, 0, &dst, 0, 8});
  EXPECT_EQ(comm::max_bytes_sent(segs), 0u);
  // Remote rows count against the sender; busiest sender wins.
  segs.push_back({0, &src, 0, 1, &dst, 0, 2});  // dev 0 sends 2*4*4 = 32 B
  segs.push_back({1, &src, 0, 2, &dst, 0, 3});  // dev 1 sends 3*4*4 = 48 B
  segs.push_back({1, &src, 3, 0, &dst, 3, 2});  // dev 1 total 80 B
  EXPECT_EQ(comm::max_bytes_sent(segs), 5u * 4 * 4);
  EXPECT_EQ(comm::max_bytes_sent({}), 0u);
}

TEST(CommAllToAll, DurationDegenerateGroupPaysOnlyLaunchLatency) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup solo(cluster, {0});
  const double launch =
      cluster.cost_model().config().comm_launch_latency;
  // A one-rank "exchange" moves nothing over links, whatever the payload.
  EXPECT_DOUBLE_EQ(comm::alltoall_duration(solo, 0), launch);
  EXPECT_DOUBLE_EQ(comm::alltoall_duration(solo, 64 * MiB), launch);
}

TEST(CommAllToAll, DurationCompensatesPayloadFactor) {
  // alltoall_seconds models a symmetric exchange of bytes_per_device and
  // applies a (P-1)/P on-wire factor; alltoall_duration takes the payload
  // the busiest rank actually sends (self share already excluded) and
  // must invert that factor — the modelled time is launch + payload/bw,
  // independent of the group size used to get there.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  const double launch =
      cluster.cost_model().config().comm_launch_latency;
  for (int p = 2; p <= 4; ++p) {
    std::vector<int> devices;
    for (int d = 0; d < p; ++d) devices.push_back(d);
    comm::ProcessGroup group(cluster, devices);
    const double bw = cluster.topology().alltoall_bandwidth(devices);
    const std::uint64_t payload = 6 * MiB;  // divisible by 2 and 3
    const double expected = launch + static_cast<double>(payload) / bw;
    EXPECT_NEAR(comm::alltoall_duration(group, payload), expected,
                expected * 1e-9)
        << "group size " << p;
  }
}

TEST(CommAllToAll, TimedOpCarriesModeledDuration) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  sim::OpGraph g;
  const int id = comm::alltoall_timed(g, world, 3 * MiB, "a2a", {});
  EXPECT_DOUBLE_EQ(g.op(id).base_seconds,
                   comm::alltoall_duration(world, 3 * MiB));
  EXPECT_GT(g.op(id).base_seconds,
            cluster.cost_model().config().comm_launch_latency);
}

TEST(CommAllToAll, CalibratedCurveDeratesSmallExchanges) {
  // With a measured bandwidth curve installed, an exchange far below the
  // sweep's saturation point pays proportionally more per byte than one at
  // the top — the analytic model charges both the full link rate.
  sim::CommBandwidthCurve curve;
  curve.bytes = {4 * KiB, 1 * MiB, 64 * MiB};
  curve.seconds = {10e-6, 60e-6, 3000e-6};  // 0.4 -> 17 -> 22 GB/s
  sim::ClusterConfig config;
  config.topology.num_devices = 4;
  config.topology.devices_per_node = 4;
  config.cost.comm_curve = curve;
  sim::Cluster cluster(config);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);

  sim::ClusterConfig analytic_config = config;
  analytic_config.cost.comm_curve = {};
  sim::Cluster analytic(analytic_config);
  comm::ProcessGroup analytic_world = comm::ProcessGroup::world(analytic);

  const double launch = config.cost.comm_launch_latency;
  const double small = comm::alltoall_duration(world, 8 * KiB) - launch;
  const double big = comm::alltoall_duration(world, 32 * MiB) - launch;
  const double small_analytic =
      comm::alltoall_duration(analytic_world, 8 * KiB) - launch;
  const double big_analytic =
      comm::alltoall_duration(analytic_world, 32 * MiB) - launch;
  // Analytic: seconds scale exactly with bytes. Calibrated: the small
  // exchange runs at a fraction of the big one's effective bandwidth.
  EXPECT_NEAR(big_analytic / small_analytic, 4096.0, 1.0);
  EXPECT_LT(big / small, 2048.0);
  // At the curve's best-rate knot the calibrated model converges to the
  // analytic one (efficiency 1 by construction).
  EXPECT_GT(big / big_analytic, 0.99);
}

TEST(CommAllReduce, SumsAcrossRanks) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 3);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  std::vector<Tensor> grads;
  for (int d = 0; d < 3; ++d) {
    grads.push_back(Tensor::full(Shape{4}, static_cast<float>(d + 1)));
  }
  sim::OpGraph g;
  comm::allreduce_sum(g, world, {&grads[0], &grads[1], &grads[2]}, "ar", {});
  cluster.run(g);
  for (int d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(grads[static_cast<std::size_t>(d)].at(0), 6.0f);
  }
}

TEST(CommBroadcast, CopiesRootToAll) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 3);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  std::vector<Tensor> weights;
  for (int d = 0; d < 3; ++d) {
    weights.push_back(Tensor::full(Shape{4}, static_cast<float>(d)));
  }
  sim::OpGraph g;
  comm::broadcast(g, world, 1, {&weights[0], &weights[1], &weights[2]},
                  "bc", {});
  cluster.run(g);
  for (int d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(weights[static_cast<std::size_t>(d)].at(2), 1.0f);
  }
}

TEST(CommAllGather, ConcatenatesRows) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Tensor in0 = Tensor::full(Shape{1, 2}, 1.0f);
  Tensor in1 = Tensor::full(Shape{2, 2}, 2.0f);
  Tensor out0(Shape{3, 2}), out1(Shape{3, 2});
  sim::OpGraph g;
  comm::allgather_rows(g, world, {&in0, &in1}, {&out0, &out1}, "ag", {});
  cluster.run(g);
  EXPECT_FLOAT_EQ(out0.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out0.at(2, 1), 2.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(out0, out1), 0.0f);
}

TEST(CommP2P, MultiSegmentTransfer) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Rng rng(3);
  Tensor src(Shape{6, 2});
  init_normal(src, rng, 1.0f);
  Tensor dst(Shape{6, 2});
  std::vector<comm::RowSegment> segs;
  segs.push_back({0, &src, 0, 1, &dst, 4, 2});
  segs.push_back({0, &src, 4, 1, &dst, 0, 2});
  sim::OpGraph g;
  comm::send_recv_multi(g, world, segs, "p2p", {});
  cluster.run(g);
  EXPECT_FLOAT_EQ(max_abs_diff(dst.slice_rows(4, 6), src.slice_rows(0, 2)),
                  0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(dst.slice_rows(0, 2), src.slice_rows(4, 6)),
                  0.0f);
}

TEST(CommP2P, MismatchedEndpointsRejected) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 3);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Tensor a(Shape{2, 2}), b(Shape{2, 2});
  std::vector<comm::RowSegment> segs;
  segs.push_back({0, &a, 0, 1, &b, 0, 1});
  segs.push_back({0, &a, 1, 2, &b, 1, 1});  // different dst
  sim::OpGraph g;
  EXPECT_THROW(comm::send_recv_multi(g, world, segs, "bad", {}), CheckError);
}

TEST(ProcessGroup, RankMappingAndValidation) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  comm::ProcessGroup pg(cluster, {2, 0, 3});
  EXPECT_EQ(pg.size(), 3);
  EXPECT_EQ(pg.device_of_rank(0), 2);
  EXPECT_EQ(pg.rank_of_device(3), 2);
  EXPECT_THROW(pg.rank_of_device(1), CheckError);
  EXPECT_THROW(comm::ProcessGroup(cluster, {0, 0}), CheckError);
  EXPECT_THROW(comm::ProcessGroup(cluster, {9}), CheckError);
}

}  // namespace
}  // namespace mpipe
