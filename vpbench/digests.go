package main

// recordedDigests are the SHA-256 digests of the text rendering of every
// table a sweep produces, at the sweep's trace length, for the default and
// the held-out seed. go test -run DigestsAreCurrent -update rewrites this file.
var recordedDigests = map[digestKey]string{
	{"sec3", 1, 50000, "fig3.1"}:    "502976936be8c26dfb1d3d9a5b93f0d8e676e021b2d09fb871a2638ada2c4d87",
	{"sec3", 1, 50000, "fig3.3"}:    "cf8a5b3e23e5aee115e8d8a70245fdef44d68c790658228536ad19211281d82b",
	{"sec3", 1, 50000, "fig3.4"}:    "f58e3e413e6f961b8139bb0d6aa462c88d34ed95d8eb635431c5ff24b64eda95",
	{"sec3", 1, 50000, "fig3.5"}:    "aa6c3b969a9f4e0a8928eb34a557421548a5fe818ff8b759c24766c7d918bcbd",
	{"sec3", 7, 50000, "fig3.1"}:    "99dee0a8f7bc1cb7b7f5c47c91e34f604f38646b980d076b0bdf96fcb76db268",
	{"sec3", 7, 50000, "fig3.3"}:    "01a28f17cc612f76e49202635c5de9a32feb7cf654b03fb381fd000e3678e92e",
	{"sec3", 7, 50000, "fig3.4"}:    "052fc1f71f25a897ae3f9bc5fa7c5bcc02f9014680e30de1733106601a5c374c",
	{"sec3", 7, 50000, "fig3.5"}:    "c6d471698ac233de2936ac13ebf85c3ca34f1897de4c61244664bdf00c7de09e",
	{"sec5", 1, 50000, "fig5.1"}:    "cfd5993707a5f0b869be4c0d053c52a7bb5131dfce5b78c534c2ef3e53de6463",
	{"sec5", 1, 50000, "fig5.2"}:    "942ecf671f02e107949f5b332d17121a00fe96fef2afb39946b8e34b0f255862",
	{"sec5", 1, 50000, "fig5.3"}:    "2470c5b4a0c039effe563720731fa253c91cca5dbd31408fd44e444804c0a041",
	{"sec5", 1, 50000, "sec4"}:      "af92deb89d3cad3dcceb8c67050a9d81fd2f5ef3921af8593903667eb0482bbd",
	{"sec5", 7, 50000, "fig5.1"}:    "58b1cd48c143bfbd274fecdfaf9705fed1c5eb65cbc7b61d3f67949835205b57",
	{"sec5", 7, 50000, "fig5.2"}:    "47f81e5b616f3bfd820c7a469a490b484a8a7cb1fb5a4a5d296013b84bd1c93a",
	{"sec5", 7, 50000, "fig5.3"}:    "cd27d3530f5f1ea9eb0237d35b3fb208070b962425de2cc055224c9103d1b6ce",
	{"sec5", 7, 50000, "sec4"}:      "72ec6bca1c0e57a8456ab7d67ec9565a24e202bbf602ace4c3068dd2433ab664",
	{"stream", 1, 100000, "fig3.1"}: "11eee7151fdb9966abb7f1dac2f1baf31024e0ba9c50b016d4498908f4d03c71",
	{"stream", 1, 100000, "fig5.2"}: "1bc28a184751df394cdcc6a3a366e97a27ccd2be06ac7778552a5a9098a71b4f",
	{"stream", 7, 100000, "fig3.1"}: "a7c8c07ff95d707757ae6b6473c7e56e4fb17bff4026a67bbb074d78b82e47d3",
	{"stream", 7, 100000, "fig5.2"}: "7b9a1fab8b2357202837403d6d33ca30d35ec68f8126c0ee31536dd8db079ba3",
}
