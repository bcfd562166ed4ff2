/**
 * @file
 * The block-path differential shared by the VM, trace and fuzz
 * suites: what the record pass builds from the VM's blocks -- the
 * encoded columns, the profile and the Table 1/2 counters derived
 * from it -- must be byte-identical to the per-event references over
 * the same events.
 */

#ifndef BRANCHLAB_TESTS_BLOCK_PATH_HH
#define BRANCHLAB_TESTS_BLOCK_PATH_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "profile/profile.hh"
#include "trace/record.hh"
#include "trace/soa.hh"
#include "trace/stats.hh"
#include "trace/view.hh"

namespace branchlab::test
{

/** Run one suite into @p sink; @return the instructions executed. */
using SuiteRun = std::function<std::uint64_t(trace::TraceSink &sink)>;

/** Every column of two streams, and their max pcs, byte for byte. */
inline void
expectSameColumns(const trace::SoaTrace &a, const trace::SoaTrace &b)
{
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.ops(), b.ops());
    EXPECT_EQ(a.conditionalPlane(), b.conditionalPlane());
    EXPECT_EQ(a.takenPlane(), b.takenPlane());
    EXPECT_EQ(a.targetKnownPlane(), b.targetKnownPlane());
    EXPECT_EQ(a.anomalyPlane(), b.anomalyPlane());
    EXPECT_EQ(a.deltas(), b.deltas());
    EXPECT_EQ(a.anomalyDeltas(), b.anomalyDeltas());
    EXPECT_EQ(a.maxPc(), b.maxPc());
}

/**
 * The per-event references: every event, as TraceSink's default
 * onBlock() hands it over, goes to SoaTrace::append, to a profile's
 * onBranch and to a TraceStats' onBranch, one at a time. Keeps no
 * event vector, so a whole workload suite stays small.
 */
class PerEventReference : public trace::TraceSink
{
  public:
    PerEventReference(const ir::Program &program, const ir::Layout &layout,
                      std::uint64_t runs)
        : profile(program, layout)
    {
        for (std::uint64_t r = 0; r < runs; ++r)
            profile.noteRun();
    }

    void
    onBranch(const trace::BranchEvent &event) override
    {
        stream.append(event);
        profile.onBranch(event);
        stats.onBranch(event);
    }

    trace::SoaTrace stream;
    profile::ProgramProfile profile;
    trace::TraceStats stats;
};

/**
 * Run @p run twice: once into the record pass's block consumers
 * (SoaRecorder and ProgramProfile behind a FanoutSink, counters
 * derived from the profile), once into a PerEventReference. Hold the
 * block path byte-identical to the references -- the columns and max
 * pc, exportRows() (also against foldProfile over the reference
 * stream's view) and the counters -- with @p runs noted runs each.
 * @return the number of events.
 */
inline std::size_t
expectBlockPathMatchesPerEvent(const ir::Program &program,
                               const ir::Layout &layout,
                               std::uint64_t runs, const SuiteRun &run)
{
    trace::SoaRecorder recorder;
    profile::ProgramProfile online(program, layout);
    for (std::uint64_t r = 0; r < runs; ++r)
        online.noteRun();
    trace::FanoutSink block_path;
    block_path.addSink(&recorder);
    block_path.addSink(&online);
    const std::uint64_t instructions = run(block_path);
    const trace::SoaTrace stream = recorder.take();

    PerEventReference reference(program, layout, runs);
    EXPECT_EQ(run(reference), instructions);
    reference.stats.addInstructions(instructions);
    expectSameColumns(stream, reference.stream);

    const trace::CachedProfile rows = online.exportRows();
    EXPECT_EQ(rows, reference.profile.exportRows());
    const profile::ProgramProfile folded = profile::foldProfile(
        program, layout, runs, trace::TraceView::of(reference.stream));
    EXPECT_EQ(rows, folded.exportRows());

    EXPECT_EQ(online.traceCounters(instructions),
              reference.stats.counters());
    return reference.stream.size();
}

} // namespace branchlab::test

#endif // BRANCHLAB_TESTS_BLOCK_PATH_HH
