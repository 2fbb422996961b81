// Sabotage fixture: a header without #pragma once that leaks a using
// directive into every includer. WILL_FAIL, with hygiene_bad.cc.
#include <vector>

using namespace std;

inline int count(const vector<int>& v) { return int(v.size()); }
