#include "analysis/diagnostics.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "profile/fs_opt.hh"
#include "support/logging.hh"

namespace branchlab::analysis
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "unknown";
}

std::string
Diagnostic::text() const
{
    std::ostringstream os;
    os << severityName(severity) << ": [" << rule << "] " << message;
    if (!where.empty())
        os << " (at " << where << ")";
    return os.str();
}

// ---------------------------------------------------------------------
// DiagnosticEngine
// ---------------------------------------------------------------------

DiagnosticEngine::DiagnosticEngine(LintOptions options)
    : options_(options)
{}

void
DiagnosticEngine::registerRule(std::unique_ptr<LintRule> rule)
{
    for (const auto &existing : rules_) {
        blab_assert(existing->name() != rule->name(),
                    "duplicate lint rule '", rule->name(), "'");
    }
    rules_.push_back(std::move(rule));
}

std::vector<const LintRule *>
DiagnosticEngine::rules() const
{
    std::vector<const LintRule *> out;
    out.reserve(rules_.size());
    for (const auto &rule : rules_)
        out.push_back(rule.get());
    return out;
}

void
DiagnosticEngine::enableOnly(const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        const bool known =
            std::any_of(rules_.begin(), rules_.end(),
                        [&](const auto &r) { return r->name() == name; });
        if (!known)
            blab_fatal("unknown lint rule '", name, "'");
    }
    enabled_ = names;
}

bool
DiagnosticEngine::ruleEnabled(const LintRule &rule) const
{
    if (enabled_.empty())
        return true;
    return std::find(enabled_.begin(), enabled_.end(), rule.name()) !=
           enabled_.end();
}

std::vector<Diagnostic>
DiagnosticEngine::lintProgram(const ir::Program &program) const
{
    AnalysisCache cache(program);
    ProgramContext context{program, cache};
    std::vector<Diagnostic> diags;
    for (const auto &rule : rules_) {
        if (ruleEnabled(*rule))
            rule->checkProgram(context, diags);
    }
    return postProcess(std::move(diags));
}

std::vector<Diagnostic>
DiagnosticEngine::lintFsImage(const profile::ProgramProfile &profile,
                              const profile::FsOptResult &opt) const
{
    AnalysisCache cache(profile.program());
    FsImageContext context{profile, opt, cache};
    std::vector<Diagnostic> diags;
    for (const auto &rule : rules_) {
        if (ruleEnabled(*rule))
            rule->checkFsImage(context, diags);
    }
    return postProcess(std::move(diags));
}

std::vector<Diagnostic>
DiagnosticEngine::postProcess(std::vector<Diagnostic> diags) const
{
    std::vector<Diagnostic> kept;
    kept.reserve(diags.size());
    for (Diagnostic &diag : diags) {
        if (options_.warningsAsErrors &&
            diag.severity == Severity::Warning)
            diag.severity = Severity::Error;
        if (diag.severity < options_.minSeverity)
            continue;
        kept.push_back(std::move(diag));
    }
    return kept;
}

bool
DiagnosticEngine::hasErrors(const std::vector<Diagnostic> &diags)
{
    return std::any_of(diags.begin(), diags.end(), [](const auto &d) {
        return d.severity == Severity::Error;
    });
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

std::string
renderDiagnosticsText(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    for (const Diagnostic &diag : diags)
        os << diag.text() << "\n";
    return os.str();
}

namespace
{

void
appendJsonString(std::ostream &os, const std::string &text)
{
    os << '"';
    for (char c : text) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

std::string
renderDiagnosticsJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &diag = diags[i];
        os << (i == 0 ? "\n" : ",\n") << "  {\"severity\": ";
        appendJsonString(os, severityName(diag.severity));
        os << ", \"rule\": ";
        appendJsonString(os, diag.rule);
        os << ", \"message\": ";
        appendJsonString(os, diag.message);
        os << ", \"where\": ";
        appendJsonString(os, diag.where);
        os << "}";
    }
    os << (diags.empty() ? "]" : "\n]");
    return os.str();
}

std::string
renderFixPreviewJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &diag = diags[i];
        os << (i == 0 ? "\n" : ",\n") << "  {\"severity\": ";
        appendJsonString(os, severityName(diag.severity));
        os << ", \"rule\": ";
        appendJsonString(os, diag.rule);
        os << ", \"message\": ";
        appendJsonString(os, diag.message);
        os << ", \"where\": ";
        appendJsonString(os, diag.where);
        os << ", \"span\": ";
        if (diag.hasSpan) {
            os << "{\"unit\": ";
            appendJsonString(os, diag.spanUnit);
            os << ", \"begin\": " << diag.spanBegin
               << ", \"end\": " << diag.spanEnd << "}";
        } else {
            os << "null";
        }
        os << "}";
    }
    os << (diags.empty() ? "]" : "\n]");
    return os.str();
}

} // namespace branchlab::analysis
