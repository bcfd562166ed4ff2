#include "analysis/analysis_cache.hh"

namespace branchlab::analysis
{

AnalysisCache::AnalysisCache(const ir::Program &program) : prog_(program)
{
    const std::size_t n = program.numFunctions();
    cfgs_.resize(n);
    doms_.resize(n);
    live_.resize(n);
    assigned_.resize(n);
    consts_.resize(n);
    reach_.resize(n);
}

AnalysisCache::~AnalysisCache() = default;

const Cfg &
AnalysisCache::cfg(ir::FuncId func)
{
    if (!cfgs_[func])
        cfgs_[func] = std::make_unique<Cfg>(prog_.function(func));
    return *cfgs_[func];
}

const DominatorTree &
AnalysisCache::dominators(ir::FuncId func)
{
    if (!doms_[func])
        doms_[func] = std::make_unique<DominatorTree>(cfg(func));
    return *doms_[func];
}

const Liveness &
AnalysisCache::liveness(ir::FuncId func)
{
    if (!live_[func])
        live_[func] = std::make_unique<Liveness>(cfg(func));
    return *live_[func];
}

const DefiniteAssignment &
AnalysisCache::assignment(ir::FuncId func)
{
    if (!assigned_[func])
        assigned_[func] =
            std::make_unique<DefiniteAssignment>(cfg(func));
    return *assigned_[func];
}

const ConstProp &
AnalysisCache::constants(ir::FuncId func)
{
    if (!consts_[func])
        consts_[func] = std::make_unique<ConstProp>(cfg(func));
    return *consts_[func];
}

const std::vector<std::vector<bool>> &
AnalysisCache::reachability(ir::FuncId func)
{
    if (!reach_[func])
        reach_[func] = std::make_unique<std::vector<std::vector<bool>>>(
            blockReachability(cfg(func)));
    return *reach_[func];
}

} // namespace branchlab::analysis
