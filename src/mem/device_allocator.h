#pragma once
/// \file device_allocator.h
/// Accounting allocator for one simulated device. Allocations are RAII
/// handles: real storage lives in mpipe::Tensor (host memory standing in
/// for HBM); the allocator tracks *what the GPU would hold* so peak
/// footprints reproduce the paper's Figures 2, 9, 10.
///
/// Physical storage is a cross-step workspace: the k-th materialized
/// alloc_tensor of a step reuses the storage the k-th one used in the
/// previous step, the way a device framework keeps its step buffers
/// allocated. Accounting never sees the workspace — an Allocation's bytes
/// and category are the same as with fresh storage.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/fault_injection.h"
#include "mem/memory_tracker.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mpipe::mem {

class DeviceAllocator;

/// RAII accounting record; releases its bytes on destruction.
class Allocation {
 public:
  Allocation() = default;
  Allocation(DeviceAllocator* allocator, Category category,
             std::uint64_t bytes);
  ~Allocation();

  Allocation(Allocation&& other) noexcept;
  Allocation& operator=(Allocation&& other) noexcept;
  Allocation(const Allocation&) = delete;
  Allocation& operator=(const Allocation&) = delete;

  std::uint64_t bytes() const { return bytes_; }
  bool active() const { return allocator_ != nullptr; }

  /// Releases early (idempotent).
  void release();

 private:
  DeviceAllocator* allocator_ = nullptr;
  Category category_ = Category::kActivation;
  std::uint64_t bytes_ = 0;
};

/// A tensor whose device residency is tracked.
struct TrackedTensor {
  Tensor tensor;
  Allocation allocation;

  bool defined() const { return tensor.defined(); }
};

class DeviceAllocator {
 public:
  /// `capacity_bytes` caps the device (0 = unlimited). Exceeding it throws
  /// — benches use the cap to demonstrate "fits vs OOM" (Fig 11 batch
  /// scaling discussion).
  explicit DeviceAllocator(int device_id, std::uint64_t capacity_bytes = 0);

  // Live Allocation handles hold a pointer to their allocator, so the
  // allocator must never relocate. Hold DeviceAllocators in a std::deque.
  DeviceAllocator(const DeviceAllocator&) = delete;
  DeviceAllocator& operator=(const DeviceAllocator&) = delete;
  DeviceAllocator(DeviceAllocator&&) = delete;
  DeviceAllocator& operator=(DeviceAllocator&&) = delete;

  int device_id() const { return device_id_; }
  std::uint64_t capacity() const { return capacity_; }

  Allocation allocate(Category category, std::uint64_t bytes);

  /// Starts a step: resets the tracker's peaks and rewinds the workspace
  /// cursor. MoELayer and FasterMoE call it once per step, before the
  /// step's first allocation. An allocator that never begins a step
  /// never rewinds, so each of its tensors keeps a slot of its own.
  void begin_step();

  /// Allocates a zeroed tensor with accounting. With materialize = false
  /// only the accounting happens (timing-only runs at paper scale must not
  /// touch real storage); the tensor member stays undefined.
  ///
  /// A materialized tensor takes the next workspace slot. The slot's
  /// storage is reused (zeroed) when nobody else holds it and its capacity
  /// is within [n, 2n] floats for n = shape.numel(); otherwise the slot
  /// lets go of it and gets fresh storage of max(n, old capacity) capped
  /// at 2n, so jittered batch sizes settle within a few steps. A tensor
  /// the caller still holds from an earlier step is therefore never
  /// recycled.
  ///
  /// `account_dtype` sets the accounted footprint of a rank-2 shape to its
  /// wire/storage format (quantized_bytes) while the materialized tensor
  /// stays fp32 — the simulation computes in fp32 on values already rounded
  /// through the wire format, but a real device would hold the reduced
  /// bytes. kF32 keeps the exact legacy accounting.
  TrackedTensor alloc_tensor(Shape shape, Category category,
                             bool materialize = true,
                             DType account_dtype = DType::kF32);

  /// Number of workspace slots: the most materialized tensors any one
  /// step has allocated.
  std::size_t workspace_slots() const { return workspace_.size(); }

  MemoryTracker& tracker() { return tracker_; }
  const MemoryTracker& tracker() const { return tracker_; }

  /// Wires the cluster's fault injector in: allocations then fail with
  /// OutOfMemoryError according to the injector's alloc-failure schedule
  /// (keyed by a per-allocator sequence number). Null detaches. OOM —
  /// injected or real — is fatal to the step, never retried; recovery
  /// happens at the trainer's checkpoint/rollback level.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) {
    fault_injector_ = std::move(injector);
  }

 private:
  friend class Allocation;
  void on_release(Category category, std::uint64_t bytes);
  /// Zeroed storage for `shape` from the next workspace slot.
  Tensor workspace_tensor(const Shape& shape);

  int device_id_;
  std::uint64_t capacity_;
  MemoryTracker tracker_;
  std::shared_ptr<const FaultInjector> fault_injector_;
  // Allocation sequence id feeding the injector's hash; allocations happen
  // on the (single) graph-build thread, so a plain counter suffices.
  std::uint64_t alloc_seq_ = 0;
  // Cross-step storage, one slot per materialized allocation of a step;
  // same single-thread rule as alloc_seq_.
  std::vector<std::shared_ptr<std::vector<float>>> workspace_;
  std::size_t workspace_cursor_ = 0;
};

/// Thrown when an allocation would exceed the device capacity.
class OutOfMemoryError : public std::runtime_error {
 public:
  OutOfMemoryError(int device, std::uint64_t requested, std::uint64_t in_use,
                   std::uint64_t capacity);

  std::uint64_t requested;
  std::uint64_t in_use;
  std::uint64_t capacity;
};

}  // namespace mpipe::mem
