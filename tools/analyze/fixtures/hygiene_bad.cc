// Sabotage fixture: the first include is not the file's own header.
#include <vector>

#include "hygiene_bad.hh"

int total() { return count(std::vector<int>{1, 2}); }
