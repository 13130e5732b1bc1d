#include "kvx/sim/memory.hpp"

#include <cstring>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"

namespace kvx::sim {

// Anonymous mappings are zero-filled by the kernel on first touch, so
// construction writes nothing. (calloc is no substitute: once glibc has
// freed one large block it raises its mmap threshold, and later callocs
// come from the heap and are memset.)
Memory::Memory(usize size_bytes) : size_(size_bytes) {
  if (size_ == 0) return;
#if defined(__unix__) || defined(__APPLE__)
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  bytes_ = static_cast<u8*>(p);
#else
  bytes_ = new u8[size_]();
#endif
}

Memory::~Memory() {
  if (bytes_ == nullptr) return;
#if defined(__unix__) || defined(__APPLE__)
  ::munmap(bytes_, size_);
#else
  delete[] bytes_;
#endif
}

Memory::Memory(Memory&& other) noexcept
    : bytes_(std::exchange(other.bytes_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

void Memory::check(u32 addr, usize len, unsigned align) const {
  if (static_cast<usize>(addr) + len > size_) {
    throw SimError(strfmt("memory access 0x%08x+%zu out of bounds (size 0x%zx)",
                          addr, len, size_));
  }
  if (align > 1 && addr % align != 0) {
    throw SimError(strfmt("misaligned %u-byte access at 0x%08x",
                          static_cast<unsigned>(len), addr));
  }
}

u8 Memory::read8(u32 addr) const {
  check(addr, 1, 1);
  return bytes_[addr];
}

u16 Memory::read16(u32 addr) const {
  check(addr, 2, 2);
  u16 v;
  std::memcpy(&v, bytes_ + addr, 2);
  return v;
}

u32 Memory::read32(u32 addr) const {
  check(addr, 4, 4);
  u32 v;
  std::memcpy(&v, bytes_ + addr, 4);
  return v;
}

u64 Memory::read64(u32 addr) const {
  check(addr, 8, 8);
  u64 v;
  std::memcpy(&v, bytes_ + addr, 8);
  return v;
}

void Memory::write8(u32 addr, u8 value) {
  check(addr, 1, 1);
  bytes_[addr] = value;
}

void Memory::write16(u32 addr, u16 value) {
  check(addr, 2, 2);
  std::memcpy(bytes_ + addr, &value, 2);
}

void Memory::write32(u32 addr, u32 value) {
  check(addr, 4, 4);
  std::memcpy(bytes_ + addr, &value, 4);
}

void Memory::write64(u32 addr, u64 value) {
  check(addr, 8, 8);
  std::memcpy(bytes_ + addr, &value, 8);
}

u64 Memory::read_element(u32 addr, unsigned width_bits) const {
  switch (width_bits) {
    case 8: return read8(addr);
    case 16: return read16(addr);
    case 32: return read32(addr);
    case 64: return read64(addr);
    default:
      throw SimError(strfmt("bad element width %u", width_bits));
  }
}

void Memory::write_element(u32 addr, unsigned width_bits, u64 value) {
  switch (width_bits) {
    case 8: write8(addr, static_cast<u8>(value)); return;
    case 16: write16(addr, static_cast<u16>(value)); return;
    case 32: write32(addr, static_cast<u32>(value)); return;
    case 64: write64(addr, value); return;
    default:
      throw SimError(strfmt("bad element width %u", width_bits));
  }
}

void Memory::write_block(u32 addr, std::span<const u8> data) {
  check(addr, data.size(), 1);
  std::memcpy(bytes_ + addr, data.data(), data.size());
}

void Memory::read_block(u32 addr, std::span<u8> out) const {
  check(addr, out.size(), 1);
  std::memcpy(out.data(), bytes_ + addr, out.size());
}

}  // namespace kvx::sim
