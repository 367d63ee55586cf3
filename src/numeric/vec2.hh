/**
 * @file
 * Two-double vector type for the dense kernels (sparse Cholesky's
 * panels, the impulse-response GEMV).
 *
 * GCC and Clang vector types hold two doubles, the width every x86-64
 * and AArch64 target has without extra flags, so the kernels
 * vectorize in the default build. Each lane sees the same operations
 * in the same order the scalar loop would apply to its entry, so a
 * kernel written on V2 gives the scalar loop's bits.
 */

#ifndef IRTHERM_NUMERIC_VEC2_HH
#define IRTHERM_NUMERIC_VEC2_HH

#include <cstring>

namespace irtherm
{

using V2 = double __attribute__((vector_size(16)));

inline V2
load2(const double *p)
{
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store2(double *p, V2 v)
{
    std::memcpy(p, &v, sizeof v);
}

inline V2
splat(double x)
{
    return V2{x, x};
}

} // namespace irtherm

#endif // IRTHERM_NUMERIC_VEC2_HH
