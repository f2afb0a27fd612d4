/**
 * @file
 * Unit tests for the poat-itrace format (v6): recorder / replayer
 * roundtrips of every event and note, dep-tag canonicalization, the
 * word-wise record hash, and the required failure modes (every
 * malformed file must raise std::runtime_error with a descriptive
 * message, never UB).
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "trace_io/itrace.h"

namespace poat {
namespace trace_io {
namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "itrace_test." + name + "." +
        std::to_string(::getpid()) + ".itrace";
}

/** Sink that journals every call (with deps) as one line of text. */
class JournalSink : public TraceSink
{
  public:
    /**
     * Tags handed out for load-like events. Deliberately NOT dense
     * sequence numbers: start + stride mimic a core model whose tags
     * are uop sequence numbers, so canonicalization is actually
     * exercised.
     */
    JournalSink(uint64_t start, uint64_t stride)
        : next_(start), stride_(stride)
    {}

    std::vector<std::string> lines;

    void
    alu(uint32_t count, uint64_t dep) override
    {
        add("alu " + std::to_string(count) + " d" + rel(dep));
    }

    void
    branch(bool taken, uint64_t pc, uint64_t dep) override
    {
        add("branch " + std::to_string(taken) + " " +
            std::to_string(pc) + " d" + rel(dep));
    }

    uint64_t
    load(uint64_t vaddr, uint64_t dep, uint64_t dep2) override
    {
        add("load " + std::to_string(vaddr) + " d" + rel(dep) + " d" +
            rel(dep2));
        return issue();
    }

    void
    store(uint64_t vaddr, uint64_t dep) override
    {
        add("store " + std::to_string(vaddr) + " d" + rel(dep));
    }

    uint64_t
    nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2) override
    {
        add("nvLoad " + std::to_string(oid.raw) + " d" + rel(dep) +
            " d" + rel(dep2));
        return issue();
    }

    void
    nvStore(ObjectID oid, uint64_t dep) override
    {
        add("nvStore " + std::to_string(oid.raw) + " d" + rel(dep));
    }

    void clwb(uint64_t vaddr) override
    {
        add("clwb " + std::to_string(vaddr));
    }

    void nvClwb(ObjectID oid) override
    {
        add("nvClwb " + std::to_string(oid.raw));
    }

    void fence() override { add("fence"); }

    void
    poolMapped(uint32_t pool_id, uint64_t vbase, uint64_t size) override
    {
        add("poolMapped " + std::to_string(pool_id) + " " +
            std::to_string(vbase) + " " + std::to_string(size));
    }

    void
    poolUnmapped(uint32_t pool_id) override
    {
        add("poolUnmapped " + std::to_string(pool_id));
    }

    void swTranslateBegin() override { add("swTranslateBegin"); }
    void swTranslateEnd() override { add("swTranslateEnd"); }

    void
    coreSwitch(uint32_t core) override
    {
        add("coreSwitch " + std::to_string(core));
    }

    void
    note(const Note &n) override
    {
        std::string s = "note " + std::to_string(static_cast<int>(n.kind));
        for (const uint64_t a : n.arg)
            s += " " + std::to_string(a);
        add(s + " '" + std::string(n.name) + "'");
    }

  private:
    void add(std::string s) { lines.push_back(std::move(s)); }

    uint64_t
    issue()
    {
        issued_.push_back(next_);
        const uint64_t tag = next_;
        next_ += stride_;
        return tag;
    }

    /**
     * Render a dep tag relative to this sink's own issue order ("#3" =
     * my third load), so journals from sinks with different tag
     * schemes compare equal exactly when the dependence structure is
     * preserved.
     */
    std::string
    rel(uint64_t dep) const
    {
        if (dep == kNoDep)
            return "0";
        for (size_t i = 0; i < issued_.size(); ++i)
            if (issued_[i] == dep)
                return "#" + std::to_string(i + 1);
        return "?" + std::to_string(dep);
    }

    uint64_t next_;
    uint64_t stride_;
    std::vector<uint64_t> issued_;
};

/** Drive a fixed little scenario against any sink, chaining deps. */
void
runScenario(TraceSink &sink)
{
    sink.poolMapped(1, 0x7000'0000'0000ull, 1 << 20);
    sink.note(Note::opName(5, "new_order"));
    sink.note({NoteKind::OpSet, {5}});
    sink.note({NoteKind::TxBegin, {1, 5}});
    sink.note({NoteKind::LockWait, {3, 0xfeed'beef'cafeull, 1, 2}});
    sink.note({NoteKind::LockAcquired, {3, 0xfeed'beef'cafeull, 1}});
    sink.alu(3, kNoDep);
    const uint64_t a = sink.load(0x1000, kNoDep, kNoDep);
    const uint64_t b = sink.load(0x2000, a, kNoDep);
    sink.alu(1, b);
    sink.branch(true, 42, b);
    sink.store(0x3000, a);
    const uint64_t c = sink.nvLoad(ObjectID(1, 0x40), b, a);
    sink.nvStore(ObjectID(1, 0x80), c);
    sink.clwb(0x3000);
    sink.nvClwb(ObjectID(1, 0x80));
    sink.swTranslateBegin();
    const uint64_t d = sink.load(0x4000, c, kNoDep);
    sink.alu(2, d);
    sink.swTranslateEnd();
    sink.fence();
    sink.note({NoteKind::CommitJoin, {3}});
    sink.note({NoteKind::CommitBatch, {4, 3}});
    sink.note({NoteKind::TxCommit, {1}});
    sink.note({NoteKind::LockReleased, {3, 0xfeed'beef'cafeull}});
    sink.note({NoteKind::TxBegin, {1, 0}});
    sink.note({NoteKind::LockDeadlock, {2, 77}});
    sink.note({NoteKind::TxAbort, {1}});
    sink.note({NoteKind::WorkerDone, {3}});
    sink.poolUnmapped(1);
}

/** Events runScenario emits: 17 typed events and one note of each kind
 *  (TxBegin twice). */
constexpr uint64_t kScenarioEvents = 30;

TEST(Recorder, RoundtripPreservesEventsAndDeps)
{
    const std::string path = tmpPath("roundtrip");
    JournalSink live(1, 1);

    {
        JournalSink inner(1, 1);
        TraceRecorder rec(&inner, path, "fpr");
        runScenario(rec);
        rec.setProfile("sidecar blob");
        rec.finish();

        // The capture run drove its inner sink exactly like a live run.
        runScenario(live);
        EXPECT_EQ(inner.lines, live.lines);
        EXPECT_EQ(rec.eventCount(), kScenarioEvents);
    }

    const TraceReplayer trace(path);
    EXPECT_EQ(trace.fingerprint(), "fpr");
    EXPECT_EQ(trace.profile(), "sidecar blob");
    EXPECT_EQ(trace.eventCount(), kScenarioEvents);

    JournalSink replayed(1, 1);
    trace.replayInto(replayed);
    EXPECT_EQ(replayed.lines, live.lines);

    // replayInto is repeatable: each replay starts a fresh tag map.
    JournalSink again(1, 1);
    trace.replayInto(again);
    EXPECT_EQ(again.lines, live.lines);

    std::remove(path.c_str());
}

TEST(Recorder, CanonicalizesSparseInnerTags)
{
    // Inner tags 1000, 1007, 1014, ... (OoO-style uop numbers); the
    // replay sink hands out 5, 10, 15, ... Dependence structure must
    // survive both remappings.
    const std::string path = tmpPath("canonical");
    {
        JournalSink inner(1000, 7);
        TraceRecorder rec(&inner, path, "fpr");
        // The workload sees canonical dense sequence numbers.
        const uint64_t a = rec.load(0x10, kNoDep, kNoDep);
        const uint64_t b = rec.load(0x20, a, kNoDep);
        EXPECT_EQ(a, 1u);
        EXPECT_EQ(b, 2u);
        rec.store(0x30, b);
        // The inner sink saw its own tags, not the canonical ones.
        EXPECT_EQ(inner.lines[1], "load 32 d#1 d0");
        EXPECT_EQ(inner.lines[2], "store 48 d#2");
        rec.finish();
    }

    const TraceReplayer trace(path);
    JournalSink sink(5, 5);
    trace.replayInto(sink);
    EXPECT_EQ(sink.lines[0], "load 16 d0 d0");
    EXPECT_EQ(sink.lines[1], "load 32 d#1 d0");
    EXPECT_EQ(sink.lines[2], "store 48 d#2");
    std::remove(path.c_str());
}

TEST(Recorder, UnknownDepClampsToNoDep)
{
    // A dep that is not a sequence number the recorder handed out
    // (e.g. garbage from a buggy caller) must degrade to kNoDep, not
    // index out of bounds.
    const std::string path = tmpPath("clamp");
    {
        JournalSink inner(1, 1);
        TraceRecorder rec(nullptr, path, "fpr");
        rec.store(0x10, 999);
        rec.finish();
    }
    const TraceReplayer trace(path);
    JournalSink sink(1, 1);
    trace.replayInto(sink);
    EXPECT_EQ(sink.lines[0], "store 16 d0");
    std::remove(path.c_str());
}

TEST(Recorder, AbandonedRecorderLeavesNoFile)
{
    const std::string path = tmpPath("abandon");
    {
        TraceRecorder rec(nullptr, path, "fpr");
        rec.alu(1, kNoDep);
        // No finish(): destructor must discard the temporary.
    }
    EXPECT_FALSE(TraceReplayer::matches(path, "fpr"));
    std::ifstream f(path);
    EXPECT_FALSE(f.good());
}

TEST(Replayer, MissingFileThrows)
{
    EXPECT_THROW(TraceReplayer("/nonexistent/nope.itrace"),
                 std::runtime_error);
}

TEST(Replayer, MatchesChecksFingerprintAndShape)
{
    const std::string path = tmpPath("matches");
    {
        TraceRecorder rec(nullptr, path, "the-right-fingerprint");
        runScenario(rec);
        rec.finish();
    }
    EXPECT_TRUE(TraceReplayer::matches(path, "the-right-fingerprint"));
    EXPECT_FALSE(TraceReplayer::matches(path, "some-other-fingerprint"));
    EXPECT_FALSE(TraceReplayer::matches(path + ".missing", "x"));
    std::remove(path.c_str());
}

/** Load a finished trace file into memory for corruption tests. */
std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class Corruption : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tmpPath("corrupt");
        TraceRecorder rec(nullptr, path_, "fpr-corruption-test");
        runScenario(rec);
        rec.setProfile("profile");
        rec.finish();
        good_ = slurp(path_);
        ASSERT_GT(good_.size(), kHeaderSize);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    void
    expectThrows(const std::string &bytes, const char *what_substr)
    {
        spit(path_, bytes);
        try {
            TraceReplayer trace(path_);
            // Header defects throw in the constructor; record defects
            // may only surface during decode.
            NullTraceSink sink;
            trace.replayInto(sink);
            FAIL() << "expected std::runtime_error (" << what_substr
                   << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(what_substr),
                      std::string::npos)
                << e.what();
        }
    }

    std::string path_;
    std::string good_;
};

TEST_F(Corruption, BadMagic)
{
    std::string bad = good_;
    bad[0] = 'X';
    expectThrows(bad, "bad magic");
}

TEST_F(Corruption, WrongVersion)
{
    std::string bad = good_;
    bad[8] = 99;
    expectThrows(bad, "unsupported format version");
}

TEST_F(Corruption, TruncatedHeader)
{
    expectThrows(good_.substr(0, kHeaderSize / 2), "truncated header");
}

TEST_F(Corruption, TruncatedRecords)
{
    expectThrows(good_.substr(0, good_.size() / 2), path_.c_str());
}

TEST_F(Corruption, MissingTrailer)
{
    // Cut exactly the profile trailer off the end.
    expectThrows(good_.substr(0, good_.size() - 4 - 7 - 1),
                 path_.c_str());
}

TEST_F(Corruption, FlippedRecordByteFailsHashCheck)
{
    std::string bad = good_;
    bad[kHeaderSize + 20 + 3] ^= 0x40; // inside the record region
    expectThrows(bad, "hash mismatch");
}

TEST_F(Corruption, TrailingGarbage)
{
    expectThrows(good_ + "extra", "trailing garbage");
}

TEST_F(Corruption, EventCountMismatch)
{
    // Patch the header's event count without touching the records.
    std::string bad = good_;
    bad[16] = static_cast<char>(kScenarioEvents + 3);
    expectThrows(bad, "event count mismatch");
}

TEST_F(Corruption, V5HeaderIsRejected)
{
    std::string old = good_;
    old[8] = 5;
    spit(path_, old);
    EXPECT_FALSE(TraceReplayer::matches(path_, "fpr-corruption-test"));
    expectThrows(old, "unsupported format version 5");
}

// --------------------------------------------------------------------
// v6 record hash and malformed varints

uint64_t
le64(const std::string &bytes, size_t at)
{
    uint64_t v = 0;
    for (size_t i = 8; i-- > 0;)
        v = v << 8 | static_cast<uint8_t>(bytes[at + i]);
    return v;
}

void
putLe(std::string &out, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** The v6 record hash, written out from its definition in itrace.h. */
uint64_t
wordHash(const std::string &records)
{
    uint64_t h = kFnvBasis;
    size_t i = 0;
    for (; i + 8 <= records.size(); i += 8)
        h = (h ^ le64(records, i)) * kFnvPrime;
    for (; i < records.size(); ++i)
        h = (h ^ static_cast<uint8_t>(records[i])) * kFnvPrime;
    return h;
}

/** The v5 record hash: byte-wise FNV-1a. */
uint64_t
byteHash(const std::string &records)
{
    uint64_t h = kFnvBasis;
    for (const char c : records)
        h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
    return h;
}

/** Record region of a trace file, located through its header. */
std::string
recordsOf(const std::string &file)
{
    const size_t fpr_len = static_cast<uint32_t>(le64(file, 12));
    return file.substr(kHeaderSize + fpr_len,
                       static_cast<size_t>(le64(file, 24)));
}

/** A complete, correctly hashed v6 file around @p records. */
std::string
rawTrace(const std::string &records, uint64_t events)
{
    const std::string fpr = "raw";
    std::string f(kMagic, sizeof(kMagic));
    putLe(f, kFormatVersion, 4);
    putLe(f, fpr.size(), 4);
    putLe(f, events, 8);
    putLe(f, records.size(), 8);
    putLe(f, wordHash(records), 8);
    f += fpr + records;
    putLe(f, 0, 4); // empty profile
    return f;
}

/** Replay @p bytes (a whole file) and require an error naming @p why. */
void
expectReplayError(const std::string &bytes, const std::string &why)
{
    const std::string path = tmpPath("raw");
    spit(path, bytes);
    try {
        const TraceReplayer trace(path);
        NullTraceSink sink;
        trace.replayInto(sink);
        ADD_FAILURE() << "expected std::runtime_error (" << why << ")";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(path + ": " + why),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Varint, TruncationThrows)
{
    // A clwb record whose vaddr varint the record region cuts short,
    // at every cut, in a file whose header and hash are valid.
    std::vector<uint8_t> v;
    appendVarint(v, ~0ull);
    for (size_t cut = 0; cut < v.size(); ++cut) {
        std::string records(1, static_cast<char>(EventKind::Clwb));
        records.append(v.begin(), v.begin() + static_cast<long>(cut));
        expectReplayError(rawTrace(records, 1),
                          "truncated varint in record region");
    }
}

TEST(Varint, OverlongEncodingThrows)
{
    // Ten continuation bytes encode more than 64 bits, whether the
    // record region ends right after them or more bytes follow.
    for (const size_t run : {kMaxVarintBytes, kMaxVarintBytes + 5}) {
        std::string records(1, static_cast<char>(EventKind::Clwb));
        records.append(run, '\x80');
        expectReplayError(rawTrace(records, 1), "varint exceeds 64 bits");
    }
}

TEST(Replayer, MalformedNoteRecordsThrow)
{
    // An OpName whose name runs past the end of the record region.
    std::string records(1, static_cast<char>(EventKind::OpName));
    records += "\x01\x09new"; // op 1, a 9-byte name, 3 bytes of it
    expectReplayError(rawTrace(records, 1), "truncated opName record");
    // A kind byte past the last record kind.
    expectReplayError(rawTrace(std::string(1, '\x1b'), 1),
                      "unknown record kind 27");
}

TEST(Replayer, EmptyFileIsATruncatedHeader)
{
    expectReplayError(std::string(), "truncated header");
}

TEST(Replayer, DirectoryPathThrows)
{
    const std::string dir = tmpPath("dir");
    std::filesystem::create_directories(dir);
    EXPECT_THROW(TraceReplayer{dir}, std::runtime_error);
    std::filesystem::remove(dir);
}

/** The typed (non-note) record kinds. */
std::vector<EventKind>
typedKinds()
{
    std::vector<EventKind> kinds;
    for (uint8_t k = kMinEventKind; k <= kMaxEventKind; ++k)
        if (k < uint8_t(EventKind::TxBegin) ||
            k == uint8_t(EventKind::CoreSwitch))
            kinds.push_back(static_cast<EventKind>(k));
    return kinds;
}

/** One @p kind event with every operand @p v and every dep @p seq. */
void
emitKind(TraceSink &sink, EventKind kind, uint64_t v, uint64_t seq)
{
    const auto u32 = static_cast<uint32_t>(v);
    switch (kind) {
      case EventKind::Alu:
        return sink.alu(u32, seq);
      case EventKind::Branch:
        return sink.branch(v & 1, v, seq);
      case EventKind::Load:
        sink.load(v, seq, seq);
        return;
      case EventKind::Store:
        return sink.store(v, seq);
      case EventKind::NvLoad:
        sink.nvLoad(ObjectID(v), seq, seq);
        return;
      case EventKind::NvStore:
        return sink.nvStore(ObjectID(v), seq);
      case EventKind::Clwb:
        return sink.clwb(v);
      case EventKind::NvClwb:
        return sink.nvClwb(ObjectID(v));
      case EventKind::Fence:
        return sink.fence();
      case EventKind::PoolMapped:
        return sink.poolMapped(u32, v, v);
      case EventKind::PoolUnmapped:
        return sink.poolUnmapped(u32);
      case EventKind::SwTranslateBegin:
        return sink.swTranslateBegin();
      case EventKind::SwTranslateEnd:
        return sink.swTranslateEnd();
      case EventKind::CoreSwitch:
        return sink.coreSwitch(u32);
      default:
        FAIL() << "not a typed kind: " << int(kind);
    }
}

TEST(Replayer, EveryTypedKindRoundTripsAtEveryOperandWidth)
{
    // Operands of 1 to 10 bytes and deps of 1 and 2 bytes, each typed
    // kind far from the record region's end (the one-byte fast path)
    // and once as its last record (readVarint near the end).
    static constexpr uint64_t kValues[] = {
        0, 1, 127, 128, 16383, 16384, 0xffff'ffffull, 1ull << 35,
        1ull << 63, ~0ull};
    const std::vector<EventKind> kinds = typedKinds();
    ASSERT_EQ(kinds.size(), 14u);
    for (const EventKind last : kinds) {
        auto scenario = [&](TraceSink &sink) {
            for (int i = 0; i < 200; ++i)
                sink.load(0x1000 + i, kNoDep, kNoDep);
            for (const uint64_t v : kValues)
                for (const uint64_t seq : {0, 1, 127, 128, 200})
                    for (const EventKind k : kinds)
                        emitKind(sink, k, v, seq);
            emitKind(sink, last, ~0ull, 200);
        };
        const std::string path = tmpPath("kinds");
        JournalSink live(1, 1);
        scenario(live);
        {
            TraceRecorder rec(nullptr, path, "fpr");
            scenario(rec);
            rec.finish();
        }
        const TraceReplayer trace(path);
        JournalSink replayed(1, 1);
        trace.replayInto(replayed);
        EXPECT_EQ(replayed.lines, live.lines)
            << "last kind " << eventKindName(uint8_t(last));
        std::remove(path.c_str());
    }
}

TEST(Replayer, EveryTypedKindRejectsTruncatedAndOverlongOperands)
{
    for (const EventKind kind : typedKinds()) {
        const uint8_t k = static_cast<uint8_t>(kind);
        for (uint8_t bad = 0; bad < kOperandCount[k]; ++bad) {
            SCOPED_TRACE(std::string(eventKindName(k)) + " operand " +
                         std::to_string(bad));
            std::string head(1, static_cast<char>(k));
            head.append(bad, '\0'); // the operands before it
            // The region ends inside the operand: readVarint's path.
            expectReplayError(rawTrace(head + "\x80\x80", 1),
                              "truncated varint in record region");
            // Ten continuation bytes with more than ten bytes after
            // them: the path that starts with the one-byte check.
            expectReplayError(
                rawTrace(head + std::string(kMaxVarintBytes, '\x80') +
                             std::string(12, '\0'),
                         1),
                "varint exceeds 64 bits");
        }
    }
}

TEST(ItraceV6, RecordHashIsWordwiseFnv1a)
{
    const std::string path = tmpPath("hashdef");
    {
        TraceRecorder rec(nullptr, path, "fpr");
        runScenario(rec);
        rec.finish();
    }
    const std::string file = slurp(path);
    const std::string records = recordsOf(file);
    EXPECT_EQ(le64(file, 32), wordHash(records));
    EXPECT_NE(wordHash(records), byteHash(records));
    std::remove(path.c_str());
}

TEST(ItraceV6, RecordingPastTheFlushThresholdReplays)
{
    // 3-byte alu records: the recorder's buffer first passes its 1 MB
    // flush threshold at byte 1048578, which is not a multiple of 8, so
    // the flushes split hash words. The region ends in a 1-byte tail.
    constexpr uint32_t kEvents = 1'000'003;
    const std::string path = tmpPath("large");
    uint64_t insns = 0;
    {
        TraceRecorder rec(nullptr, path, "fpr");
        for (uint32_t i = 0; i < kEvents; ++i) {
            const uint32_t count = 1 + i % 100;
            rec.alu(count, kNoDep);
            insns += count;
        }
        rec.finish();
    }
    const std::string file = slurp(path);
    const std::string records = recordsOf(file);
    ASSERT_EQ(records.size(), 3ull * kEvents);
    EXPECT_EQ(records.size() % 8, 1u);
    EXPECT_EQ(le64(file, 32), wordHash(records));

    const TraceReplayer trace(path);
    EXPECT_EQ(trace.eventCount(), kEvents);
    CountingTraceSink sink;
    trace.replayInto(sink);
    EXPECT_EQ(sink.instructions, insns);
    std::remove(path.c_str());
}

TEST(ItraceV6, OneFlippedByteFailsTheHashAnywhere)
{
    // Seven 3-byte alu records: 21 record bytes, two hash words and a
    // 5-byte tail.
    const std::string path = tmpPath("flip");
    {
        TraceRecorder rec(nullptr, path, "fpr");
        for (int i = 0; i < 7; ++i)
            rec.alu(1, kNoDep);
        rec.finish();
    }
    const std::string good = slurp(path);
    const size_t at = kHeaderSize + 3;
    ASSERT_EQ(recordsOf(good).size(), 21u);
    {
        const TraceReplayer ok(path); // the untouched file validates
    }
    // The first record byte, a byte inside the second word, and a tail
    // byte; every bit of each.
    for (const size_t off : {size_t{0}, size_t{11}, size_t{19}}) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = good;
            bad[at + off] ^= static_cast<char>(1 << bit);
            spit(path, bad);
            try {
                const TraceReplayer trace(path);
                ADD_FAILURE() << "flip at " << off << " bit " << bit
                              << " went unnoticed";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("hash mismatch"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    std::remove(path.c_str());
}

TEST(ItraceV6, V5CacheFileIsRecapturedByRunExperiment)
{
    driver::ExperimentConfig cfg;
    cfg.workload = "LL";
    cfg.pattern = workloads::PoolPattern::Random;
    cfg.scale_pct = 5;
    cfg.mode = TranslationMode::Hardware;
    const driver::ExperimentResult live = driver::runExperiment(cfg);

    cfg.trace_cache = testing::TempDir() + "itrace_test.v5cache." +
        std::to_string(::getpid());
    std::filesystem::create_directories(cfg.trace_cache);
    const std::string path = driver::traceCachePath(cfg);
    const std::string fpr = driver::traceFingerprint(cfg);
    driver::runExperiment(cfg); // captures a v6 file

    // Turn the cached file into what v5 wrote: same records, version 5,
    // byte-wise hash.
    std::string file = slurp(path);
    file[8] = 5;
    const uint64_t v5_hash = byteHash(recordsOf(file));
    for (int i = 0; i < 8; ++i)
        file[32 + i] = static_cast<char>(v5_hash >> (8 * i));
    spit(path, file);
    ASSERT_FALSE(TraceReplayer::matches(path, fpr));

    const driver::ExperimentResult again = driver::runExperiment(cfg);
    EXPECT_TRUE(TraceReplayer::matches(path, fpr)); // recaptured as v6
    EXPECT_EQ(static_cast<uint8_t>(slurp(path)[8]), kFormatVersion);
    EXPECT_EQ(again.metrics.cycles, live.metrics.cycles);
    EXPECT_EQ(again.metrics.instructions, live.metrics.instructions);
    std::ostringstream a, b;
    live.stats.dumpJson(a);
    again.stats.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
    std::filesystem::remove_all(cfg.trace_cache);
}

} // namespace
} // namespace trace_io
} // namespace poat
