/**
 * @file
 * An allocator for large scratch arrays that come from the system and
 * go straight back to it.
 *
 * glibc returns a thread's frees to that thread's malloc arena and
 * raises its mmap threshold after each large free, so once a sweep
 * worker has built and dropped a few-megabyte array, later arrays of
 * that size are carved from its arena and their pages stay resident
 * after they are freed: every worker that ever ran a sparse
 * factorization would keep a factor's worth of memory for good.
 * MappedAllocator maps arrays of at least kMappedMinBytes with mmap
 * and unmaps them on free; smaller ones use operator new.
 */

#ifndef IRTHERM_NUMERIC_MAPPED_ALLOCATOR_HH
#define IRTHERM_NUMERIC_MAPPED_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace irtherm
{

#if defined(__SANITIZE_ADDRESS__)
#define IRTHERM_MAPPED_ALLOCATOR_OFF 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IRTHERM_MAPPED_ALLOCATOR_OFF 1
#endif
#endif

/**
 * Arrays this large or larger are mapped (16 pages). Under
 * AddressSanitizer every array goes through operator new, so its
 * bounds stay checked.
 */
#ifdef IRTHERM_MAPPED_ALLOCATOR_OFF
inline constexpr std::size_t kMappedMinBytes =
    std::numeric_limits<std::size_t>::max();
#else
inline constexpr std::size_t kMappedMinBytes = std::size_t(64) << 10;
#endif

template <typename T>
struct MappedAllocator
{
    using value_type = T;

    MappedAllocator() = default;
    template <typename U>
    MappedAllocator(const MappedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMappedMinBytes)
            return static_cast<T *>(::operator new(bytes));
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMappedMinBytes)
            ::operator delete(p);
        else
            munmap(p, bytes);
    }

    template <typename U>
    bool
    operator==(const MappedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A std::vector whose large buffers are mapped (see the file comment). */
template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

} // namespace irtherm

#endif // IRTHERM_NUMERIC_MAPPED_ALLOCATOR_HH
