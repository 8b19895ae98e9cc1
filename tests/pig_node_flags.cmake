# Bad pig_node command lines exit 2 at once, with the usage text or the
# node builder's one error line: cmake -DPIG_NODE=<binary> -P <this>
set(peers "127.0.0.1:42190,127.0.0.1:42191")

function(expect_exit_2 want_stderr)
  execute_process(COMMAND ${PIG_NODE} ${ARGN} TIMEOUT 5
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX MATCHALL "pig_node:" lines "${err}")
  list(LENGTH lines n)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "${want_stderr}" OR n GREATER 1)
    message(FATAL_ERROR "pig_node ${ARGN}: exit '${rc}', want 2 and one "
                        "'${want_stderr}' line:\n${err}")
  endif()
endfunction()

expect_exit_2("usage: pig_node" --node-id=0 --peers=127.0.0.1:70000,127.0.0.1:1)
expect_exit_2("usage: pig_node" --node-id=zero --peers=${peers})
expect_exit_2("usage: pig_node" --node-id=0 --peers=${peers} --protocol=raft)
expect_exit_2("EPaxos has no durable storage" --node-id=0 --peers=${peers}
              --protocol=epaxos --data-dir=/nonexistent/pig-node-flags)
expect_exit_2("support only Paxos and PigPaxos" --node-id=0 --peers=${peers}
              --protocol=epaxos --num-groups=2)
expect_exit_2("cannot open data dir /dev/null/group-0" --node-id=0
              --peers=${peers} --data-dir=/dev/null)
