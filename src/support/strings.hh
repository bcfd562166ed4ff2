/**
 * @file
 * Small string utilities shared across BranchLab modules.
 */

#ifndef BRANCHLAB_SUPPORT_STRINGS_HH
#define BRANCHLAB_SUPPORT_STRINGS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace branchlab
{

/** Split @p text on a separator character; keeps empty fields. */
std::vector<std::string> splitString(const std::string &text, char sep);

/** Split @p text into lines, treating '\n' as the separator. A final
 *  newline does not produce a trailing empty line. */
std::vector<std::string> splitLines(const std::string &text);

/** Join parts with a separator. */
std::string joinStrings(const std::vector<std::string> &parts,
                        const std::string &sep);

/** Strip leading and trailing whitespace (space, tab, CR, LF). */
std::string trimString(const std::string &text);

/** True when @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** True when @p text ends with @p suffix. */
bool endsWith(const std::string &text, const std::string &suffix);

/** Left-pad with spaces to at least @p width characters. */
std::string padLeft(const std::string &text, std::size_t width);

/** Right-pad with spaces to at least @p width characters. */
std::string padRight(const std::string &text, std::size_t width);

/** Replace every occurrence of @p from (non-empty) with @p to. */
std::string replaceAll(std::string text, const std::string &from,
                       const std::string &to);

/**
 * Parse a decimal number: one or more ASCII digits and nothing else
 * (no sign, no space, no prefix), no larger than @p max. @return the
 * value, or std::nullopt for any other text.
 */
std::optional<std::uint64_t> parseDecimal(std::string_view text,
                                          std::uint64_t max);

/** The value @p text of command-line option @p flag, parsed by
 *  parseDecimal(); anything else is a fatal diagnostic naming the
 *  flag and the range. */
std::uint64_t parseOptionNumber(std::string_view flag,
                                std::string_view text, std::uint64_t max);

/** parseOptionNumber() bounded by the range of the destination type
 *  @p T: the one checked parser for every tool's numeric options. */
template <typename T>
T
parseOptionNumber(std::string_view flag, std::string_view text)
{
    static_assert(std::is_unsigned_v<T>, "option values are unsigned");
    return static_cast<T>(
        parseOptionNumber(flag, text, std::numeric_limits<T>::max()));
}

} // namespace branchlab

#endif // BRANCHLAB_SUPPORT_STRINGS_HH
