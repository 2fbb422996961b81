# Deferred from hook.cmake: runs after every hmm::* library is defined.
add_executable(throughput "${HMM_THROUGHPUT_DIR}/throughput.cc")
target_link_libraries(throughput PRIVATE hmm::sim hmm::runner)
target_include_directories(throughput PRIVATE "${CMAKE_SOURCE_DIR}")
