// Regenerates the paper's experiment tables (Tables I, II and III).

#include "table_common.hpp"

int main() {
  for (int index = 1; index <= 3; ++index) ppnpart::bench::run_table(index);
  return 0;
}
