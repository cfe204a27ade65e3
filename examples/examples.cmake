# Example binaries land directly in build/examples/.

function(draconis_add_example name)
  add_executable(example_${name} ${CMAKE_SOURCE_DIR}/examples/${name}.cpp)
  target_link_libraries(example_${name} PRIVATE
    draconis_dag draconis_cluster draconis_baselines draconis_core draconis_workload
    draconis_p4 draconis_net draconis_metrics draconis_stats draconis_sim draconis_common)
  set_target_properties(example_${name}
    PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/examples OUTPUT_NAME ${name})
endfunction()

draconis_add_example(quickstart)
draconis_add_example(priority_analytics)
draconis_add_example(locality_cache)
draconis_add_example(gpu_inference)
draconis_add_example(cluster_sim)
draconis_add_example(list_schedulers)
draconis_add_example(repin_spread)

# Smoke-test the examples as part of ctest (each asserts on its own output).
add_test(NAME example_quickstart COMMAND example_quickstart)
add_test(NAME example_gpu_inference COMMAND example_gpu_inference)
add_test(NAME example_cluster_sim
         COMMAND example_cluster_sim --utilization=0.4 --duration-ms=10)
add_test(NAME example_list_schedulers COMMAND example_list_schedulers)
