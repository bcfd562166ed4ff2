/**
 * @file
 * Rule-based lint diagnostics over IR programs and Forward Semantic
 * images.
 *
 * A LintRule inspects a program (or an FS image) through the shared
 * analysis library — CFG, dominators, liveness, constants — and
 * reports Diagnostics. The DiagnosticEngine owns a set of registered
 * rules, runs them, and post-processes the reports (severity floor,
 * warnings-as-errors promotion). `blab_lint` is the CLI face; tests
 * drive the engine directly.
 *
 * Rules are deliberately independent of the verifiers: the verifiers
 * reject what is malformed or unsafe, the lint flags *well-formed but
 * suspicious* code. For a program, ir::verifyProgram rejects dangling
 * references and unsealed blocks; for a Forward Semantic image,
 * profile::verifyFsOptImage proves every safety property (checks
 * O1-O11) at every optimizer level. Callers must verify first, as
 * `blab_lint` does; rules may assume what the verifiers prove.
 */

#ifndef BRANCHLAB_ANALYSIS_DIAGNOSTICS_HH
#define BRANCHLAB_ANALYSIS_DIAGNOSTICS_HH

#include <memory>
#include <string>

#include "analysis/analysis_cache.hh"
#include "profile/profile.hh"

namespace branchlab::profile
{
struct FsOptResult;
}

namespace branchlab::analysis
{

enum class Severity
{
    Note,    ///< Informational; never fails a run.
    Warning, ///< Suspicious; fails under --Werror.
    Error,   ///< A correctness hazard; always fails the run.
};

/** "note", "warning", or "error". */
const char *severityName(Severity severity);

/** One lint finding. */
struct Diagnostic
{
    Severity severity = Severity::Warning;
    /** Reporting rule, e.g. "dead-store". */
    std::string rule;
    std::string message;
    /** Source position, e.g. "main.loop[3]" or "main.body". */
    std::string where;
    /**
     * Machine-readable offending span for --fix-preview, half-open
     * [spanBegin, spanEnd). spanUnit is "image-slot" (indices into
     * the FS image) or "inst" (instruction indices within the block
     * named by 'where').
     */
    bool hasSpan = false;
    const char *spanUnit = "";
    std::size_t spanBegin = 0;
    std::size_t spanEnd = 0;

    /** "severity: [rule] message (at where)". */
    std::string text() const;
};

/** What a program-level rule sees. */
struct ProgramContext
{
    const ir::Program &program;
    AnalysisCache &analyses;
};

/** What an FS-image rule sees: the image with the optimizer's
 *  evidence records (analyses are over the original program the image
 *  was derived from). */
struct FsImageContext
{
    const profile::ProgramProfile &profile;
    const profile::FsOptResult &opt;
    AnalysisCache &analyses;
};

/**
 * One lint rule. Override whichever check applies; a rule may check
 * both programs and images.
 */
class LintRule
{
  public:
    virtual ~LintRule() = default;

    /** Stable kebab-case identifier, e.g. "unreachable-block". */
    virtual std::string_view name() const = 0;
    virtual std::string_view description() const = 0;

    virtual void
    checkProgram(ProgramContext &context,
                 std::vector<Diagnostic> &out) const
    {
        (void)context;
        (void)out;
    }

    virtual void
    checkFsImage(FsImageContext &context,
                 std::vector<Diagnostic> &out) const
    {
        (void)context;
        (void)out;
    }
};

/** Post-processing applied to every lint run. */
struct LintOptions
{
    /** Promote warnings to errors (--Werror). */
    bool warningsAsErrors = false;
    /** Drop diagnostics below this severity. */
    Severity minSeverity = Severity::Note;
};

class DiagnosticEngine
{
  public:
    explicit DiagnosticEngine(LintOptions options = LintOptions{});

    void registerRule(std::unique_ptr<LintRule> rule);

    /** Registered rules, in registration order. */
    std::vector<const LintRule *> rules() const;

    /** Restrict the run to the named rules (all when empty). Unknown
     *  names are fatal. */
    void enableOnly(const std::vector<std::string> &names);

    /** Run every enabled rule's program check. The program must pass
     *  ir::verifyProgram first. */
    std::vector<Diagnostic> lintProgram(const ir::Program &program) const;

    /** Run every enabled rule's FS-image check over the image of
     *  @p opt, at any optimizer level. The image must pass
     *  profile::verifyFsOptImage first. */
    std::vector<Diagnostic>
    lintFsImage(const profile::ProgramProfile &profile,
                const profile::FsOptResult &opt) const;

    /** True when any diagnostic is an Error. */
    static bool hasErrors(const std::vector<Diagnostic> &diags);

  private:
    std::vector<Diagnostic>
    postProcess(std::vector<Diagnostic> diags) const;
    bool ruleEnabled(const LintRule &rule) const;

    LintOptions options_;
    std::vector<std::unique_ptr<LintRule>> rules_;
    std::vector<std::string> enabled_;
};

/** Register the built-in rule set (see analysis/rules.cc). */
void registerBuiltinRules(DiagnosticEngine &engine);

/** Render diagnostics one per line (Diagnostic::text()). */
std::string renderDiagnosticsText(const std::vector<Diagnostic> &diags);

/** Render diagnostics as a JSON array. */
std::string renderDiagnosticsJson(const std::vector<Diagnostic> &diags);

/**
 * Render diagnostics as the --fix-preview JSON document: every entry
 * carries a "span" object ({"unit", "begin", "end"}, half-open) naming
 * the offending instruction range, or null when the rule reported no
 * span.
 */
std::string renderFixPreviewJson(const std::vector<Diagnostic> &diags);

} // namespace branchlab::analysis

#endif // BRANCHLAB_ANALYSIS_DIAGNOSTICS_HH
