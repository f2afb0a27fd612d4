/**
 * @file
 * Notes: the observation-only half of the dynamic instruction stream.
 *
 * Besides instructions, the runtime stack reports events that carry no
 * instructions and no cycles: transaction spans, workload-op interning
 * and switches, lock waits and grants, worker lifecycle, and commit
 * windows. They reach a TraceSink (pmem/trace.h) through one method,
 * TraceSink::note, as a Note: a kind plus its operands. Timing and
 * every simulated statistic are bit-identical whether a sink reads
 * notes or drops them; only profilers (telemetry::ContentionProfiler)
 * consume them.
 *
 * Each kind's value is its poat-itrace record kind, and the operands
 * sit in record order, so the trace recorder and replayer encode and
 * decode every note the same way (trace_io/itrace.h).
 */
#ifndef POAT_COMMON_NOTE_H
#define POAT_COMMON_NOTE_H

#include <cstdint>
#include <string_view>

namespace poat {

/** Kind of a note; the value is its poat-itrace record kind. */
enum class NoteKind : uint8_t
{
    TxBegin = 14, ///< pool_id, op: a transaction opened on the pool
    TxCommit,     ///< pool_id: the pool's transaction committed
    TxAbort,      ///< pool_id: the pool's transaction rolled back
    OpName,       ///< op, name length (+ name): interns a workload op
    LockWait = 19, ///< worker, key, mode (1 = exclusive), waits-for edges
    LockAcquired, ///< worker, key, mode
    LockReleased, ///< worker, key
    LockDeadlock, ///< worker, key: the worker is the deadlock victim
    OpSet,        ///< op: the current worker switched to this op
    WorkerDone,   ///< worker: the worker finished its engine body
    CommitJoin,   ///< worker: its transaction joined the commit window
    CommitBatch,  ///< members, elided fences: the commit window closed
};

/**
 * One note: its kind and operands in record order (unused operands are
 * 0). Op ids are interned by an OpName note before any TxBegin or OpSet
 * carries them; 0 means untagged. The lock, worker and commit notes
 * come only from the concurrent engine stack, from the worker that runs
 * on the active core.
 */
struct Note
{
    NoteKind kind;
    uint64_t arg[4] = {};
    /** OpName's name (arg[1] is its length); empty for other kinds. */
    std::string_view name = {};

    /** The OpName note interning @p op as @p name. */
    static Note
    opName(uint32_t op, std::string_view name)
    {
        return {NoteKind::OpName, {op, name.size()}, name};
    }
};

} // namespace poat

#endif // POAT_COMMON_NOTE_H
