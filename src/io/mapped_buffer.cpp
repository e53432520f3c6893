#include "io/mapped_buffer.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SOPS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SOPS_HAVE_MMAP 0
#endif

namespace sops::io {
namespace {

#if SOPS_HAVE_MMAP
std::size_t page_size() noexcept {
  static const std::size_t size = [] {
    const long reported = ::sysconf(_SC_PAGESIZE);
    return reported > 0 ? static_cast<std::size_t>(reported)
                        : std::size_t{4096};
  }();
  return size;
}
#endif

std::string errno_message(const char* operation) {
  return std::string(operation) + ": " + std::strerror(errno);
}

#if SOPS_HAVE_MMAP
// Reserves the file's blocks so a full filesystem fails here (clean heap
// fallback) instead of SIGBUS-ing the first write to an unbackable page.
// Returns 0 on success, an errno otherwise. macOS has no posix_fallocate;
// its best-effort F_PREALLOCATE is not a guarantee, so the sparse-file
// risk is accepted there.
int reserve_blocks(int fd, std::size_t bytes) {
#if defined(__APPLE__)
  (void)fd;
  (void)bytes;
  return 0;
#else
  return ::posix_fallocate(fd, 0, static_cast<off_t>(bytes));
#endif
}
#endif

}  // namespace

MappedBuffer::MappedBuffer(const std::string& path, std::size_t bytes,
                           OnFailure on_failure, Lifetime lifetime) {
  support::expect(bytes > 0, "MappedBuffer: size must be positive");
  support::expect(!path.empty(), "MappedBuffer: path must be non-empty");
  size_ = bytes;
  lifetime_ = lifetime;
#if SOPS_HAVE_MMAP
  // O_EXCL: a spill file is private scratch — colliding with an existing
  // path means two stores picked the same name, and silently truncating the
  // other one would corrupt a live recording. Callers pick unique names.
  // Persist shards rely on the same guarantee: an existing shard file must
  // be opened via open_existing (resume), never clobbered by a fresh run.
  // The descriptor is closed as soon as the mapping exists (the mapping
  // keeps the file open), so a long-lived buffer holds no descriptor.
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd < 0) {
    fallback_reason_ = errno_message("open");
  } else if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    fallback_reason_ = errno_message("ftruncate");
  } else if (const int alloc_errno = reserve_blocks(fd, bytes);
             alloc_errno != 0) {
    errno = alloc_errno;
    fallback_reason_ = errno_message("posix_fallocate");
  } else {
    void* mapping = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                           fd, 0);
    if (mapping == MAP_FAILED) {
      fallback_reason_ = errno_message("mmap");
    } else {
      ::close(fd);
      data_ = static_cast<std::byte*>(mapping);
      mapped_ = true;
      path_ = path;
      return;
    }
  }
  if (fd >= 0) {
    ::close(fd);
    ::unlink(path.c_str());
  }
#else
  fallback_reason_ = "mmap unavailable on this platform";
#endif
  lifetime_ = Lifetime::kScratch;  // nothing mapped, nothing to persist
  if (on_failure == OnFailure::kEmpty) {
    size_ = 0;
    return;
  }
  heap_.resize(bytes);  // zero-initialized, matching fresh file pages
  data_ = heap_.data();
}

MappedBuffer MappedBuffer::open_existing(const std::string& path,
                                         std::size_t bytes,
                                         OnFailure on_failure) {
  support::expect(bytes > 0, "MappedBuffer: size must be positive");
  support::expect(!path.empty(), "MappedBuffer: path must be non-empty");
  MappedBuffer buffer;
  buffer.size_ = bytes;
  buffer.lifetime_ = Lifetime::kPersist;
#if SOPS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    buffer.fallback_reason_ = errno_message("open");
  } else {
    struct ::stat info {};
    if (::fstat(fd, &info) != 0) {
      buffer.fallback_reason_ = errno_message("fstat");
    } else if (info.st_size < 0 ||
               static_cast<std::size_t>(info.st_size) != bytes) {
      // Validate before mapping: a shard file of the wrong geometry would
      // read as silent garbage (or SIGBUS past a short file).
      buffer.fallback_reason_ =
          "size mismatch: file has " + std::to_string(info.st_size) +
          " bytes, expected " + std::to_string(bytes);
    } else {
      void* mapping = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_SHARED, fd, 0);
      if (mapping == MAP_FAILED) {
        buffer.fallback_reason_ = errno_message("mmap");
      } else {
        ::close(fd);
        buffer.data_ = static_cast<std::byte*>(mapping);
        buffer.mapped_ = true;
        buffer.path_ = path;
        return buffer;
      }
    }
    // Failure never unlinks here: the file is someone's durable data.
    ::close(fd);
  }
#else
  buffer.fallback_reason_ = "mmap unavailable on this platform";
#endif
  buffer.lifetime_ = Lifetime::kScratch;
  if (on_failure == OnFailure::kEmpty) {
    buffer.size_ = 0;
    return buffer;
  }
  buffer.heap_.resize(bytes);
  buffer.data_ = buffer.heap_.data();
  return buffer;
}

MappedBuffer::~MappedBuffer() { reset(); }

MappedBuffer::MappedBuffer(MappedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      lifetime_(std::exchange(other.lifetime_, Lifetime::kScratch)),
      path_(std::move(other.path_)),
      fallback_reason_(std::move(other.fallback_reason_)),
      heap_(std::move(other.heap_)) {
  other.path_.clear();
  other.fallback_reason_.clear();
}

MappedBuffer& MappedBuffer::operator=(MappedBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    lifetime_ = std::exchange(other.lifetime_, Lifetime::kScratch);
    path_ = std::move(other.path_);
    fallback_reason_ = std::move(other.fallback_reason_);
    heap_ = std::move(other.heap_);
    other.path_.clear();
    other.fallback_reason_.clear();
  }
  return *this;
}

void MappedBuffer::reset() noexcept {
#if SOPS_HAVE_MMAP
  const bool persist = lifetime_ == Lifetime::kPersist;
  if (mapped_ && data_ != nullptr) {
    // Persist: a clean close is the shard's durability point — everything
    // still dirty goes to disk before the mapping disappears. (Samples
    // marked complete in a manifest were already MS_SYNC'd individually;
    // this covers partially-written extents so a resumed open reads a
    // consistent file, not a mix of disk and lost page cache.)
    if (persist) ::msync(data_, size_, MS_SYNC);
    ::munmap(data_, size_);
  }
  if (!path_.empty() && !persist) ::unlink(path_.c_str());
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  lifetime_ = Lifetime::kScratch;
  path_.clear();
  fallback_reason_.clear();
  heap_.clear();
}

bool MappedBuffer::flush(std::size_t offset, std::size_t length) noexcept {
#if SOPS_HAVE_MMAP
  if (!mapped_ || length == 0) return true;
  if (offset >= size_) return true;
  length = std::min(length, size_ - offset);
  const std::size_t page = page_size();
  const std::size_t begin = (offset / page) * page;
  const std::size_t end = offset + length;
  // MS_ASYNC: schedule writeback without blocking the caller — spill data
  // is scratch (no durability contract), and callers flush from simulation
  // workers where a synchronous disk stall per sample would serialize the
  // run on I/O. Dirty pages stay safe in the page cache either way.
  return ::msync(data_ + begin, end - begin, MS_ASYNC) == 0;
#else
  (void)offset;
  (void)length;
  return true;
#endif
}

bool MappedBuffer::sync(std::size_t offset, std::size_t length) noexcept {
#if SOPS_HAVE_MMAP
  if (!mapped_ || length == 0) return true;
  if (offset >= size_) return true;
  length = std::min(length, size_ - offset);
  const std::size_t page = page_size();
  const std::size_t begin = (offset / page) * page;
  const std::size_t end = offset + length;
  // MS_SYNC: block until the range is on disk. Only the shard-completion
  // path pays this — a sample's bytes must be durable before its manifest
  // bit flips — and it pays per finished sample, not per step, so the
  // stall never sits on the simulation hot loop.
  return ::msync(data_ + begin, end - begin, MS_SYNC) == 0;
#else
  (void)offset;
  (void)length;
  return true;
#endif
}

bool MappedBuffer::release(std::size_t offset, std::size_t length) noexcept {
#if SOPS_HAVE_MMAP
  if (!mapped_ || length == 0) return true;
  if (offset >= size_) return true;
  length = std::min(length, size_ - offset);
  const std::size_t page = page_size();
  const std::size_t begin = ((offset + page - 1) / page) * page;
  const std::size_t end = ((offset + length) / page) * page;
  if (begin >= end) return true;  // extent smaller than one whole page
  return ::madvise(data_ + begin, end - begin, MADV_DONTNEED) == 0;
#else
  (void)offset;
  (void)length;
  return true;
#endif
}

void MappedBuffer::advise_sequential() noexcept {
#if SOPS_HAVE_MMAP
  if (mapped_ && size_ > 0) ::madvise(data_, size_, MADV_SEQUENTIAL);
#endif
}

}  // namespace sops::io
