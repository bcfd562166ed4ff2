#include "support/strings.hh"

#include <algorithm>

#include "support/logging.hh"

namespace branchlab
{

std::vector<std::string>
splitString(const std::string &text, char sep)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            fields.push_back(text.substr(start));
            return fields;
        }
        fields.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines = splitString(text, '\n');
    if (!lines.empty() && lines.back().empty() && !text.empty() &&
        text.back() == '\n') {
        lines.pop_back();
    }
    return lines;
}

std::string
joinStrings(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string result;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            result += sep;
        result += parts[i];
    }
    return result;
}

std::string
trimString(const std::string &text)
{
    const auto is_space = [](unsigned char c) {
        return c == ' ' || c == '\t' || c == '\r' || c == '\n';
    };
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && is_space(text[begin]))
        ++begin;
    while (end > begin && is_space(text[end - 1]))
        --end;
    return text.substr(begin, end - begin);
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
padLeft(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return std::string(width - text.size(), ' ') + text;
}

std::string
padRight(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return text + std::string(width - text.size(), ' ');
}

std::string
replaceAll(std::string text, const std::string &from, const std::string &to)
{
    blab_assert(!from.empty(), "replaceAll pattern must be non-empty");
    std::size_t pos = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
        text.replace(pos, from.size(), to);
        pos += to.size();
    }
    return text;
}

std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || value > (max - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

std::uint64_t
parseOptionNumber(std::string_view flag, std::string_view text,
                  std::uint64_t max)
{
    const std::optional<std::uint64_t> value = parseDecimal(text, max);
    if (!value)
        blab_fatal("value for ", flag, " must be a number from 0 to ", max,
                   ", got '", text, "'");
    return *value;
}

} // namespace branchlab
