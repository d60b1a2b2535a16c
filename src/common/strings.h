// Small string utilities shared across modules (no external deps).

#ifndef CEXPLORER_COMMON_STRINGS_H_
#define CEXPLORER_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace cexplorer {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits `text` on `sep`, dropping empty fields — the shape of every
/// comma-separated API parameter (keywords, algorithm lists).
std::vector<std::string> SplitNonEmpty(std::string_view text, char sep);

/// Splits `text` on any run of whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view text);

/// Parses a base-10 signed integer; returns false on any non-numeric input.
bool ParseInt64(std::string_view text, std::int64_t* out);

/// Parses a floating-point number; returns false on any non-numeric input.
bool ParseDouble(std::string_view text, double* out);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Formats an integer with thousands separators: 3432273 -> "3,432,273".
std::string FormatWithCommas(std::uint64_t value);

}  // namespace cexplorer

#endif  // CEXPLORER_COMMON_STRINGS_H_
