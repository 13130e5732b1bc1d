// Byte-addressable data memory for the simulated processor.
#pragma once

#include <span>

#include "kvx/common/types.hpp"

namespace kvx::sim {

/// Simple flat RAM with bounds-checked accessors. All accesses throw
/// kvx::SimError when they fall outside the configured size. Alignment is
/// enforced for 16/32/64-bit accesses (the Ibex core has no misaligned
/// access support and the vector LSU transfers whole elements).
///
/// The bytes live in an anonymous private mapping, so a fresh memory reads
/// zero but costs no writes: a page is backed only once the program touches
/// it. Keccak programs touch a few KiB of the default 1 MiB, and every
/// processor (each engine shard, each trace recording run) owns one.
class Memory {
 public:
  explicit Memory(usize size_bytes);
  ~Memory();

  /// Moving hands the mapping over; the source is left empty (size 0).
  Memory(Memory&& other) noexcept;
  Memory& operator=(Memory&&) = delete;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  [[nodiscard]] usize size() const noexcept { return size_; }

  [[nodiscard]] u8 read8(u32 addr) const;
  [[nodiscard]] u16 read16(u32 addr) const;
  [[nodiscard]] u32 read32(u32 addr) const;
  [[nodiscard]] u64 read64(u32 addr) const;

  void write8(u32 addr, u8 value);
  void write16(u32 addr, u16 value);
  void write32(u32 addr, u32 value);
  void write64(u32 addr, u64 value);

  /// Generic element access used by the vector LSU (width in bits).
  [[nodiscard]] u64 read_element(u32 addr, unsigned width_bits) const;
  void write_element(u32 addr, unsigned width_bits, u64 value);

  /// Bulk copy in/out (host-side data staging; not cycle-accounted).
  void write_block(u32 addr, std::span<const u8> data);
  void read_block(u32 addr, std::span<u8> out) const;

 private:
  void check(u32 addr, usize len, unsigned align) const;

  u8* bytes_ = nullptr;
  usize size_ = 0;
};

}  // namespace kvx::sim
