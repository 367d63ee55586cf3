/**
 * @file
 * Host speed, measured next to every round.
 *
 * A shared VM's CPU speed drifts by tens of percent over minutes
 * (frequency, neighbours on the same cores), and that moves every
 * CPU-bound time alike. The benchmark times a fixed reference job
 * before each round — sparse matrix assembly and matrix-vector sweeps
 * over a fixed grid, in the benchmark's own code, on kJobThreads
 * threads at once like the workloads — so a change to the program
 * never changes the reference. It counts thread CPU time, not wall
 * time, so a thread waiting to be scheduled does not read as a slow
 * host. Every workload reports its times scaled to a host on which
 * the reference takes kReferenceNominalSeconds.
 */

#ifndef PERFBENCH_HOST_SPEED_HH
#define PERFBENCH_HOST_SPEED_HH

namespace perfbench
{

/** Reference time of the host the scaled metrics are expressed on. */
constexpr double kReferenceNominalSeconds = 0.017;

/** CPU seconds of one reference job, averaged over kJobThreads
 *  copies run at once. */
double referenceSeconds();

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_HH
