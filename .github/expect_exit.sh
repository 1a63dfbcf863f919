# Source this in a bash step: `expect_exit WANT ARGS...` runs `ginlab ARGS...`
# with a 10 s timeout and fails the step unless it exits WANT.
expect_exit() {
  local want=$1; shift
  local code=0
  timeout 10 ginlab "$@" > /dev/null || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "ginlab $* exited $code, expected $want (124 is the timeout)"
    exit 1
  fi
}
