// Companion fixture: the file's own header comes first.
#include "hygiene_ok.hh"

#include <vector>

int total() { return fixture::count(std::vector<int>{1, 2}); }
