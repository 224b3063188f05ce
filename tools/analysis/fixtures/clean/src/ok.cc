// Clean fixture: I/O through fcae::Env, no waivers. Must produce zero
// violations. String and comment content mentioning fopen( or sleep(
// must not trip the lexer-based rules: "fopen(" inside this comment and
// the literal below are not code.

namespace fcae {

Status CopyThroughEnv(Env* env) {
  std::string data = "call fopen(path) and sleep(2) later";
  return WriteStringToFile(env, data, "/db/ok");
}

}  // namespace fcae
