// Companion fixture: #pragma once after the file comment, and a using
// directive carrying a suppression.
#pragma once

#include <vector>

namespace fixture {
// analyze: allow(include-hygiene): proves the suppression suppresses
using namespace std;
inline int count(const vector<int>& v) { return int(v.size()); }
}  // namespace fixture
