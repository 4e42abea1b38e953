// Size-class free lists for coroutine frames (DESIGN.md §2).
//
// Every simulated packet runs several coroutines (the receive task, the
// frame's processing, the device's demux, each syscall veneer), and each
// call allocates its frame. Task::promise_type and internal::PromiseBase
// route those allocations here: a frame is rounded up to a 64-byte class
// and served from that class's free list, which a freed frame joins instead
// of going back to the system. The lists are per thread and never shrink,
// so a steady state allocates nothing; a frame above the largest class goes
// straight to ::operator new.
//
// Under AddressSanitizer the pool passes every frame straight through to
// ::operator new/delete, so ASan still sees each frame's lifetime (a
// pooled frame would hide a use-after-free of a destroyed coroutine).
#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define PFSIM_FRAME_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PFSIM_FRAME_POOL_PASSTHROUGH 1
#endif
#endif
#ifndef PFSIM_FRAME_POOL_PASSTHROUGH
#define PFSIM_FRAME_POOL_PASSTHROUGH 0
#endif

namespace pfsim {

inline constexpr bool kFramePoolPassthrough = PFSIM_FRAME_POOL_PASSTHROUGH != 0;
inline constexpr size_t kFrameClassBytes = 64;
inline constexpr size_t kFrameClasses = 32;
// The largest pooled frame; anything bigger is a plain ::operator new.
inline constexpr size_t kMaxPooledFrameBytes = kFrameClassBytes * kFrameClasses;

namespace internal {

struct FreeFrame {
  FreeFrame* next;
};

inline thread_local FreeFrame* free_frames[kFrameClasses] = {};
inline thread_local uint64_t oversize_frames = 0;

inline void* AllocateFrame(size_t size) {
  if (kFramePoolPassthrough) {
    return ::operator new(size);
  }
  if (size > kMaxPooledFrameBytes) {
    ++oversize_frames;
    return ::operator new(size);
  }
  const size_t cls = (size - 1) / kFrameClassBytes;
  if (FreeFrame* frame = free_frames[cls]) {
    free_frames[cls] = frame->next;
    return frame;
  }
  return ::operator new((cls + 1) * kFrameClassBytes);
}

inline void ReleaseFrame(void* p, size_t size) noexcept {
  if (kFramePoolPassthrough || size > kMaxPooledFrameBytes) {
    ::operator delete(p);
    return;
  }
  const size_t cls = (size - 1) / kFrameClassBytes;
  free_frames[cls] = new (p) FreeFrame{free_frames[cls]};
}

}  // namespace internal

// Frames above the largest class this thread has allocated (tests read it).
inline uint64_t oversize_frames() { return internal::oversize_frames; }

}  // namespace pfsim

#endif  // SRC_SIM_FRAME_POOL_H_
