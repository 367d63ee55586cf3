/**
 * @file
 * What is left of the retired kernel thread pool: a switch that does
 * nothing. Every numeric kernel runs serially on its caller's thread.
 * Its one caller is perfbench's SerialKernels guard
 * (perfbench/src/workloads.cc); when that guard goes, so does this.
 */

#ifndef IRTHERM_BASE_THREAD_POOL_HH
#define IRTHERM_BASE_THREAD_POOL_HH

namespace irtherm::ThreadPool
{

inline bool parallelEnabled() { return false; }
inline void setParallelEnabled(bool) {}

} // namespace irtherm::ThreadPool

#endif // IRTHERM_BASE_THREAD_POOL_HH
