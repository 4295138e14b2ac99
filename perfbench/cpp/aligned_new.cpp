// Global allocation functions of the benchmark binary: every block of 64
// bytes or more starts on a cache line.
//
// The library keeps its Montgomery workspaces and AVX-512 IFMA contexts in
// std::vector<std::uint64_t> buffers, which glibc malloc aligns to 16 bytes
// only. Where those buffers land depends on every allocation made before
// them (prime search, message history), so it is fixed by the seed, and on
// a 4-vCPU AVX-512 IFMA host 2 of 10 seeds ran the whole Paillier pipeline
// at about half speed, every time they were run (STP conversion 26 instead
// of 12 ms per entry). With cache-line-aligned blocks the same seeds ran at
// the speed of the others. Aligning here keeps that layout lottery out of the
// figures; once the library aligns those buffers itself, this file changes
// nothing.
#include <cstdlib>
#include <new>

namespace {

void* allocate(std::size_t n) {
  if (n < 64) {
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
  }
  void* p = nullptr;
  if (posix_memalign(&p, 64, n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
