#include "symbolic/symbol.hpp"

#include <ostream>

namespace systolize {

Symbol size_symbol(std::string name) {
  return Symbol(std::move(name), SymbolKind::ProblemSize);
}

Symbol coord_symbol(std::string name) {
  return Symbol(std::move(name), SymbolKind::ProcessCoord);
}

Symbol canonical_coord(std::size_t i) {
  if (i == 0) return coord_symbol("col");
  if (i == 1) return coord_symbol("row");
  // Append to a named string: GCC 12 at -O3 flags the equivalent
  // `"y" + std::to_string(i)` with a false -Wrestrict.
  std::string name = "y";
  name += std::to_string(i);
  return coord_symbol(std::move(name));
}

std::ostream& operator<<(std::ostream& os, const Symbol& s) {
  return os << s.name();
}

}  // namespace systolize
