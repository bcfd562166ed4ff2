/**
 * @file
 * Lazily built per-function analyses over one program: the one memo
 * every pass that needs more than one analysis of a function goes
 * through -- the lint run, the FS optimizer and the FS image verifier.
 * Each pass constructs its own instance, so a verifier's analyses are
 * derived from scratch, never shared with the builder it checks.
 */

#ifndef BRANCHLAB_ANALYSIS_ANALYSIS_CACHE_HH
#define BRANCHLAB_ANALYSIS_ANALYSIS_CACHE_HH

#include <memory>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/constprop.hh"
#include "analysis/defuse.hh"
#include "analysis/dominators.hh"
#include "analysis/liveness.hh"
#include "ir/program.hh"

namespace branchlab::analysis
{

/** The program must outlive the cache. */
class AnalysisCache
{
  public:
    explicit AnalysisCache(const ir::Program &program);
    ~AnalysisCache();

    const ir::Program &program() const { return prog_; }

    const Cfg &cfg(ir::FuncId func);
    const DominatorTree &dominators(ir::FuncId func);
    const Liveness &liveness(ir::FuncId func);
    const DefiniteAssignment &assignment(ir::FuncId func);
    const ConstProp &constants(ir::FuncId func);
    /** blockReachability() of the function's CFG. */
    const std::vector<std::vector<bool>> &reachability(ir::FuncId func);

  private:
    const ir::Program &prog_;
    std::vector<std::unique_ptr<Cfg>> cfgs_;
    std::vector<std::unique_ptr<DominatorTree>> doms_;
    std::vector<std::unique_ptr<Liveness>> live_;
    std::vector<std::unique_ptr<DefiniteAssignment>> assigned_;
    std::vector<std::unique_ptr<ConstProp>> consts_;
    std::vector<std::unique_ptr<std::vector<std::vector<bool>>>> reach_;
};

} // namespace branchlab::analysis

#endif // BRANCHLAB_ANALYSIS_ANALYSIS_CACHE_HH
