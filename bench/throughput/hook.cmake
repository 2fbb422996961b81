# Injected into the tree's own configure by run.py:
#   cmake -S . -B build-throughput \
#         -DCMAKE_PROJECT_hmm_INCLUDE=<abs>/bench/throughput/hook.cmake
# CMake includes this file at the end of project(hmm), before any library
# target exists, so the target definitions are deferred to the end of the
# top-level directory. A deferred add_subdirectory() is rejected by CMake;
# a deferred include() is not. The binary thus builds with exactly the
# tree's compile flags (-O2 -g -DNDEBUG -Wall -Wextra -Werror) and needs
# no edit to any CMakeLists.txt outside this directory.
set(HMM_THROUGHPUT_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${HMM_THROUGHPUT_DIR}/targets.cmake")
